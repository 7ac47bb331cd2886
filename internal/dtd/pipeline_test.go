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

// TestPipelineArenaReuseSingleWorker drives runPipeline with one worker
// (the public API short-circuits workers==1 to the sequential path, so
// the engine is called directly) over four shards, and pins arena
// recycling deterministically: one worker may allocate at most two
// arenas, so at least the third and fourth shards stage into recycled
// ones. Also pins pipelined byte-identity at workers=1.
func TestPipelineArenaReuseSingleWorker(t *testing.T) {
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
	if p.ArenaReuses < p.Shards-2 {
		t.Errorf("%d arena reuses across %d shards, want at least %d", p.ArenaReuses, p.Shards, p.Shards-2)
	}
	if p.FlushUnits != p.Shards {
		t.Errorf("%d shards shipped, want %d", p.FlushUnits, p.Shards)
	}
}

// TestPipelineFlushWaitUnderSlowCommitter stalls every commit with a
// Delay fault on pipeline.commit and drives one worker over eight shards:
// shards arrive in order, so every receive is followed by a stalled
// commit, and the worker outruns the committer. It must then wait for a
// committed arena instead of allocating a third — the workers+1 arena
// cap that bounds staged memory — and FlushWait, the worker time blocked
// on the committer, which -stats, /metrics and perfbench report, must
// account for the wait. The result is still the sequential one.
func TestPipelineFlushWaitUnderSlowCommitter(t *testing.T) {
	defer faultinject.Reset()
	docs := genDocs(53, 80)
	seq := NewExtraction()
	if _, err := seq.AddDocs(docList(docs), nil, SkipAndRecord); err != nil {
		t.Fatal(err)
	}
	faultinject.Set("pipeline.commit", "", faultinject.Fault{Delay: 20 * time.Millisecond})
	par := NewExtraction()
	list := docList(docs)
	report, err := par.runPipeline(context.Background(), list, shardBounds(list, 8), 1, nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("extraction differs from sequential")
	}
	p := report.Pipeline
	if p.FlushWait <= 0 {
		t.Errorf("FlushWait = %v behind a committer stalled %d x 20ms, want > 0", p.FlushWait, p.Shards)
	}
	if fresh := p.Shards - p.ArenaReuses; fresh > 2 {
		t.Errorf("one worker staged into %d fresh arenas, want at most 2", fresh)
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

// TestPipelineCancelWithUnitsInCommitChannel: cancellation arriving
// while staged shards sit in the commit channel must leave the
// extraction untouched, whether AddDocs or the encoding/xml oracle built
// it. A Delay fault on pipeline.commit stalls the committer so shards
// demonstrably queue up behind it when the cancellation lands.
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
	if report.Pipeline.FlushUnits != report.Pipeline.Shards {
		t.Errorf("FlushUnits = %d, want Shards = %d on a completed run", report.Pipeline.FlushUnits, report.Pipeline.Shards)
	}
	// Every shard staged into a fresh or a recycled arena, and a run
	// allocates at most workers+1.
	if fresh := report.Pipeline.Shards - report.Pipeline.ArenaReuses; fresh > 5 {
		t.Errorf("%d fresh arenas for 4 workers, want at most 5", fresh)
	}
}
