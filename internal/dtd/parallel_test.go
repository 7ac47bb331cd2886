package dtd

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// genDocs produces a deterministic synthetic corpus exercising sequences,
// text content, attributes and the text-sample cap (n > maxTextSamples).
func genDocs(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	docs := make([]string, n)
	for i := range docs {
		var b strings.Builder
		fmt.Fprintf(&b, `<root id="%d">`, i%7)
		for j := 0; j < 1+rng.Intn(6); j++ {
			el := names[rng.Intn(len(names))]
			fmt.Fprintf(&b, "<%s>", el)
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&b, "text-%d", rng.Intn(4))
			} else {
				fmt.Fprintf(&b, `<%s kind="k%d"/>`, names[rng.Intn(len(names))], rng.Intn(5))
			}
			fmt.Fprintf(&b, "</%s>", el)
		}
		b.WriteString("</root>")
		docs[i] = b.String()
	}
	return docs
}

func docList(docs []string) []Doc {
	out := make([]Doc, len(docs))
	for i, d := range docs {
		out[i] = Doc{Label: fmt.Sprintf("doc-%d", i), R: strings.NewReader(d)}
	}
	return out
}

// reportString renders a report including every error, for byte-level
// determinism comparison. The pipeline stage timings are stripped: they
// are wall-clock measurements, deliberately outside the deterministic
// contract the counters and error lists keep.
func reportString(r *IngestReport) string {
	c := *r
	c.Pipeline = nil
	return fmt.Sprintf("%s | errors=%d", c.String(), len(r.Errors))
}

func TestParallelExtractionIdenticalToSequential(t *testing.T) {
	docs := genDocs(11, 150)
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			seq := NewExtraction()
			seqReport, err := ref.add(seq, docList(docs), nil, SkipAndRecord)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
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
			}
		})
	}
}

func TestParallelSkipAndRecordMatchesSequentialOnErrors(t *testing.T) {
	docs := genDocs(23, 80)
	for _, i := range []int{3, 17, 41, 79} {
		docs[i] = "<unclosed>"
	}
	seq := NewExtraction()
	seqReport, _ := seq.AddDocs(docList(docs), nil, SkipAndRecord)
	if seqReport.Rejected != 4 {
		t.Fatalf("sequential rejected %d, want 4", seqReport.Rejected)
	}
	for _, workers := range []int{2, 8} {
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
		wantIdx := []int{3, 17, 41, 79}
		if len(parReport.Errors) != len(wantIdx) {
			t.Fatalf("workers=%d: %d errors, want %d", workers, len(parReport.Errors), len(wantIdx))
		}
		for k, e := range parReport.Errors {
			if e.Index != wantIdx[k] {
				t.Errorf("workers=%d: error %d has index %d, want %d", workers, k, e.Index, wantIdx[k])
			}
		}
	}
}

func TestParallelFailFastCommitsSequentialPrefix(t *testing.T) {
	docs := genDocs(5, 60)
	docs[37] = "<unclosed>"
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
		var de *DocumentError
		if !asDocumentError(parErr, &de) || de.Index != 37 {
			t.Fatalf("workers=%d: error = %v, want document error at 37", workers, parErr)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: committed prefix differs from sequential", workers)
		}
		if got, want := reportString(parReport), reportString(seqReport); got != want {
			t.Errorf("workers=%d: report = %q, want %q", workers, got, want)
		}
		if parErr.Error() != seqErr.Error() {
			t.Errorf("workers=%d: error = %q, want %q", workers, parErr, seqErr)
		}
	}
}

func asDocumentError(err error, out **DocumentError) bool {
	de, ok := err.(*DocumentError)
	if ok {
		*out = de
	}
	return ok
}

func TestAddDocumentsParallelLabelsByPosition(t *testing.T) {
	docs := []io.Reader{
		strings.NewReader("<a/>"),
		strings.NewReader("<bad"),
		strings.NewReader("<b/>"),
	}
	x := NewExtraction()
	report, err := x.AddDocumentsParallel(docs, 2, nil, SkipAndRecord)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Errors) != 1 {
		t.Fatalf("%d errors, want 1", len(report.Errors))
	}
	if e := report.Errors[0]; e.Index != 1 || e.Label != "document 1" {
		t.Errorf("error = index %d label %q, want index 1 label \"document 1\"", e.Index, e.Label)
	}
}

// TestParallelAttValueCapMatchesSequential pins the per-shard attribute
// value cap to sequential ingestion: a value seen in an early shard and
// again in a later one, after a document that fills maxAttValues in
// between, must end with the same count both ways.
func TestParallelAttValueCapMatchesSequential(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < maxAttValues; i++ {
		fmt.Fprintf(&b, `<e a="v%d"/>`, i)
	}
	b.WriteString("</r>")
	docA := `<r><e a="X"/></r>`
	docB := b.String()
	docC := `<r><e a="X"/></r>`

	mk := func() []Doc {
		return []Doc{
			{R: strings.NewReader(docA)},
			{R: strings.NewReader(docB)},
			{R: strings.NewReader(docC)},
		}
	}

	seq := NewExtraction()
	if _, err := seq.AddDocs(mk(), nil, SkipAndRecord); err != nil {
		t.Fatal(err)
	}
	par := NewExtraction()
	// Two workers put docC in a later shard than docA.
	if _, err := par.AddDocsParallelContext(context.Background(), mk(), 2, nil, SkipAndRecord); err != nil {
		t.Fatal(err)
	}
	sa, pa := seq.Attributes["e"]["a"], par.Attributes["e"]["a"]
	if sx, px := sa.vals[sa.idx["X"]].n, pa.vals[pa.idx["X"]].n; sx != px {
		t.Errorf("count of X: sequential %d, parallel %d (overflow: sequential %v, parallel %v)",
			sx, px, sa.overflow, pa.overflow)
	}
}

// attCapCorpus returns a base corpus holding 250 NMTOKEN values of e/@a
// and a batch of 20 documents, each adding one new value: 19 NMTOKENs,
// then "x y". Only the first 6 new values fit under maxAttValues, so the
// values a fold keeps at the cap decide between NMTOKEN and CDATA.
func attCapCorpus() (base, batch []string) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 250; i++ {
		fmt.Fprintf(&b, `<e a="v%d"/>`, i)
	}
	b.WriteString("</r>")
	base = []string{b.String()}
	for i := 0; i < 19; i++ {
		batch = append(batch, fmt.Sprintf(`<r><e a="w%d"/></r>`, i))
	}
	batch = append(batch, `<r><e a="x y"/></r>`)
	return base, batch
}

// TestMergeAttValueCapDeterministic: merging past the distinct-value cap
// keeps the merged extraction's first-seen values, so one merge repeated
// gives one result, and the kept values are the batch's first six.
func TestMergeAttValueCapDeterministic(t *testing.T) {
	base, batch := attCapCorpus()
	o := NewExtraction()
	if _, err := o.AddDocs(docList(batch), nil, FailFast); err != nil {
		t.Fatal(err)
	}
	var want string
	for i := 0; i < 50; i++ {
		x := NewExtraction()
		if _, err := x.AddDocs(docList(base), nil, FailFast); err != nil {
			t.Fatal(err)
		}
		x.Merge(o)
		got := snapshot(x)
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("merge %d kept different values than merge 0", i)
		}
		if i == 0 {
			d, _, err := inferDTD(x, testInfer)
			if err != nil {
				t.Fatal(err)
			}
			if a := attr(t, d, "e", "a"); a.Type != NMTOKEN {
				t.Errorf("e/@a = %v, want NMTOKEN from the first six new values", a.Type)
			}
		}
	}
}

// TestCancellableIngestionMatchesBackgroundPastAttCap: a cancellable
// context stages the batch and merges it into the corpus; the summary it
// writes must equal the one written by direct ingestion under Background,
// also when the batch crosses the attribute-value cap.
func TestCancellableIngestionMatchesBackgroundPastAttCap(t *testing.T) {
	base, batch := attCapCorpus()
	ingest := func(ctx context.Context, workers int) []byte {
		x := NewExtraction()
		if _, err := x.AddDocs(docList(base), nil, FailFast); err != nil {
			t.Fatal(err)
		}
		if _, err := x.AddDocsParallelContext(ctx, docList(batch), workers, nil, FailFast); err != nil {
			t.Fatal(err)
		}
		return saveSnapshot(t, x)
	}
	for _, workers := range []int{1, 2} {
		want := ingest(context.Background(), workers)
		for i := 0; i < 10; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			got := ingest(ctx, workers)
			cancel()
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d run %d: cancellable ingestion saved a different summary", workers, i)
			}
		}
	}
}
