package dtd

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtdinfer/internal/faultinject"
)

// withFlushBytes lowers the flush budget so every test shard splits into
// many sub-shard units, and restores it afterwards. Tests using it must
// not run in parallel (the budget is a package variable).
func withFlushBytes(t *testing.T, n int) {
	t.Helper()
	old := shardFlushBytes
	shardFlushBytes = n
	t.Cleanup(func() { shardFlushBytes = old })
}

// TestPipelineFlushUnitSplittingByteIdentity forces sub-shard flush units
// (a tiny byte budget makes nearly every document seal a unit) and pins
// the core invariant: splitting a shard into many units is invisible in
// the result — byte-identical extraction, identical report.
func TestPipelineFlushUnitSplittingByteIdentity(t *testing.T) {
	withFlushBytes(t, 64)
	docs := genDocs(31, 150)
	seq := NewExtraction()
	seqReport, err := seq.AddDocs(docList(docs), nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par := NewExtraction()
		parReport, err := par.AddDocsParallel(docList(docs), workers, nil, SkipAndRecord)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: extraction differs from sequential", workers)
		}
		if got, want := reportString(parReport), reportString(seqReport); got != want {
			t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
		}
		p := parReport.Pipeline
		if p == nil {
			t.Fatalf("workers=%d: no pipeline stats", workers)
		}
		if p.FlushUnits <= p.Shards {
			t.Errorf("workers=%d: %d flush units for %d shards, want splitting", workers, p.FlushUnits, p.Shards)
		}
	}
}

// TestPipelineArenaReuseSingleWorker drives runPipeline with one worker
// (the public API short-circuits workers==1 to the sequential path, so
// the engine is called directly) and a tiny flush budget: the worker must
// exhaust its in-flight tokens, block on the committer, and then recycle
// a committed arena — deterministically, because nobody else can drain
// the free list. Also pins pipelined byte-identity at workers=1.
func TestPipelineArenaReuseSingleWorker(t *testing.T) {
	withFlushBytes(t, 64)
	docs := genDocs(7, 80)
	seq := NewExtraction()
	if _, err := seq.AddDocs(docList(docs), nil, SkipAndRecord); err != nil {
		t.Fatal(err)
	}
	par := NewExtraction()
	list := docList(docs)
	bounds := shardBounds(list, 4)
	report, err := par.runPipeline(context.Background(), list, bounds, 1, nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("extraction differs from sequential")
	}
	p := report.Pipeline
	if p.ArenaReuses == 0 {
		t.Errorf("no arena reuse across %d flush units", p.FlushUnits)
	}
	if p.FlushUnits <= p.Shards {
		t.Errorf("%d flush units for %d shards, want splitting", p.FlushUnits, p.Shards)
	}
}

// TestPipelineCommitFaultLeavesCorpusUntouched arms a fault at the
// pipeline.commit hook for a mid-pipeline shard: shards before it have
// already folded when the fault fires, yet the corpus — pre-populated, so
// "untouched" means more than "still empty" — must come back exactly as
// it was. The armed fault routes the committer into a staging extraction
// that is discarded on the abort.
func TestPipelineCommitFaultLeavesCorpusUntouched(t *testing.T) {
	defer faultinject.Reset()
	x := NewExtraction()
	if _, err := x.AddDocs(docList(genDocs(3, 10)), nil, FailFast); err != nil {
		t.Fatal(err)
	}
	before := snapshot(x)
	boom := errors.New("injected commit failure")
	faultinject.Set("pipeline.commit", "2", faultinject.Fault{Err: boom})
	report, err := x.AddDocsParallel(docList(genDocs(13, 60)), 3, nil, SkipAndRecord)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := snapshot(x); got != before {
		t.Errorf("aborted commit mutated the corpus:\n  before %s\n  after  %s", before, got)
	}
	if report == nil || report.Pipeline == nil {
		t.Fatal("aborted run returned no pipeline report")
	}
}

// TestPipelineCancelWithUnitsInCommitChannel is the satellite-3 contract:
// cancellation arriving while sealed units sit in the commit channel must
// leave the extraction untouched, whether AddDocs or the encoding/xml
// oracle built it. A Delay fault on
// pipeline.commit stalls the committer so units demonstrably queue up
// behind it when the cancellation lands.
func TestPipelineCancelWithUnitsInCommitChannel(t *testing.T) {
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			defer faultinject.Reset()
			x := NewExtraction()
			if _, err := ref.add(x, docList(genDocs(17, 8)), nil, FailFast); err != nil {
				t.Fatal(err)
			}
			before := snapshot(x)
			faultinject.Set("pipeline.commit", "", faultinject.Fault{Delay: 50 * time.Millisecond})
			docs := docList(genDocs(19, 120))
			err := runCancelled(t, func(ctx context.Context) error {
				_, err := x.AddDocsParallelContext(ctx, docs, 4, nil, SkipAndRecord)
				return err
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := snapshot(x); got != before {
				t.Errorf("cancelled mid-commit mutated the corpus:\n  before %s\n  after  %s", before, got)
			}
		})
	}
}

// TestPipelineCancellableContextByteIdentical runs the staging path (a
// cancellable context that is never cancelled) to completion: adopting
// the staging extraction must be byte-identical to sequential ingestion,
// and merging it into a pre-populated corpus must match sequential
// ingestion into the same corpus. The sequential side is AddDocs or the
// encoding/xml oracle.
func TestPipelineCancellableContextByteIdentical(t *testing.T) {
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			docs := genDocs(41, 120)
			seq := NewExtraction()
			seqReport, err := ref.add(seq, docList(docs), nil, SkipAndRecord)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				ctx, cancel := context.WithCancel(context.Background())
				par := NewExtraction()
				parReport, err := par.AddDocsParallelContext(ctx, docList(docs), workers, nil, SkipAndRecord)
				cancel()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("workers=%d: adopted staging differs from sequential", workers)
				}
				if got, want := reportString(parReport), reportString(seqReport); got != want {
					t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
				}
			}

			// Merge path: same prefix on both sides, then the batch.
			prefix := genDocs(43, 15)
			seq2 := NewExtraction()
			if _, err := ref.add(seq2, docList(prefix), nil, FailFast); err != nil {
				t.Fatal(err)
			}
			par2 := NewExtraction()
			if _, err := par2.AddDocs(docList(prefix), nil, FailFast); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.add(seq2, docList(docs), nil, SkipAndRecord); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, err := par2.AddDocsParallelContext(ctx, docList(docs), 4, nil, SkipAndRecord); err != nil {
				t.Fatal(err)
			}
			if snapshot(seq2) != snapshot(par2) {
				t.Errorf("merged staging differs from sequential:\n  seq %s\n  par %s", snapshot(seq2), snapshot(par2))
			}
		})
	}
}

// TestPipelineFailFastWithFlushUnits combines FailFast with sub-shard
// splitting: the committed prefix must still match sequential FailFast
// byte-for-byte even when the failing shard streamed several units before
// its failure surfaced.
func TestPipelineFailFastWithFlushUnits(t *testing.T) {
	withFlushBytes(t, 64)
	docs := genDocs(29, 90)
	docs[61] = "<unclosed>"
	seq := NewExtraction()
	seqReport, seqErr := seq.AddDocs(docList(docs), nil, FailFast)
	if seqErr == nil {
		t.Fatal("sequential FailFast did not fail")
	}
	for _, workers := range []int{2, 8} {
		par := NewExtraction()
		parReport, parErr := par.AddDocsParallel(docList(docs), workers, nil, FailFast)
		if parErr == nil {
			t.Fatalf("workers=%d: FailFast did not fail", workers)
		}
		if parErr.Error() != seqErr.Error() {
			t.Errorf("workers=%d: error = %q, want %q", workers, parErr, seqErr)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: committed prefix differs from sequential", workers)
		}
		if got, want := reportString(parReport), reportString(seqReport); got != want {
			t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
		}
	}
}

// TestPipelineStatsRendered checks the -stats surface: a pipelined run's
// report renders the per-stage breakdown.
func TestPipelineStatsRendered(t *testing.T) {
	x := NewExtraction()
	report, err := x.AddDocsParallel(docList(genDocs(47, 40)), 4, nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	s := report.String()
	for _, want := range []string{"pipeline:", "workers: decode", "committer: commit"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	if report.Pipeline.Workers != 4 {
		t.Errorf("Workers = %d, want 4", report.Pipeline.Workers)
	}
	if report.Pipeline.FlushUnits < report.Pipeline.Shards {
		t.Errorf("FlushUnits = %d < Shards = %d", report.Pipeline.FlushUnits, report.Pipeline.Shards)
	}
}
