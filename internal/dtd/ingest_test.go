package dtd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
)

// snapshot renders every observable field of an extraction
// deterministically, so tests can assert byte-for-byte equivalence.
func snapshot(x *Extraction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "documents=%d\n", x.Documents)
	names := make([]string, 0, len(x.Sequences))
	for n := range x.Sequences {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "seq %s:", n)
		s := x.Sequences[n]
		for i := 0; i < s.Unique(); i++ {
			fmt.Fprintf(&b, " [%s]x%d", strings.Join(s.SeqStrings(i), ","), s.Count(i))
		}
		b.WriteByte('\n')
	}
	names = names[:0]
	for n := range x.HasText {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "text %s=%v\n", n, x.HasText[n])
	}
	names = names[:0]
	for n := range x.TextSamples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "samples %s=%q\n", n, x.TextSamples[n])
	}
	names = names[:0]
	for n := range x.TextOverflow {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "textoverflow %s=%v\n", n, x.TextOverflow[n])
	}
	names = names[:0]
	for n := range x.Attributes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		atts := make([]string, 0, len(x.Attributes[n]))
		for a := range x.Attributes[n] {
			atts = append(atts, a)
		}
		sort.Strings(atts)
		for _, a := range atts {
			st := x.Attributes[n][a]
			vals := append([]valCount(nil), st.vals...)
			sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
			fmt.Fprintf(&b, "att %s.%s present=%d overflow=%v", n, a, st.present, st.overflow)
			for _, vc := range vals {
				fmt.Fprintf(&b, " %s=%d", vc.v, vc.n)
			}
			b.WriteByte('\n')
		}
	}
	names = names[:0]
	for n := range x.Roots {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "root %s=%d\n", n, x.Roots[n])
	}
	return b.String()
}

func testInfer(sample [][]string) (*regex.Expr, error) {
	return gfa.Rewrite(soa.Infer(sample))
}

// inferDTD infers x's DTD with a string-sample inferrer through
// InferDTDElements, the entry point production infers through.
func inferDTD(x *Extraction, infer InferFunc) (*DTD, *InferStats, error) {
	return x.InferDTDElements(context.Background(),
		func(_ context.Context, _ string, s *sample.Set) (*regex.Expr, *ElementOutcome, error) {
			e, err := infer(s.Strings())
			return e, nil, err
		})
}

const goodDoc1 = `<db><rec id="a1" kind="x"><name>n1</name></rec></db>`
const goodDoc2 = `<db><rec id="a2" kind="y"><name>n2</name><name>n3</name></rec></db>`

// badDoc breaks after several well-formed elements: the partial-mutation
// regression case from the issue.
const badDoc = `<db><rec id="a3" kind="z"><name>nX</name></rec><rec id="a4"><oops></db>`

func TestAddDocumentAtomicOnParseError(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(goodDoc1)); err != nil {
		t.Fatal(err)
	}
	before := snapshot(x)
	if err := x.AddDocument(strings.NewReader(badDoc)); err == nil {
		t.Fatal("malformed document must fail")
	}
	if after := snapshot(x); after != before {
		t.Errorf("failed AddDocument mutated the extraction:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The accumulator still works after the failure.
	if err := x.AddDocument(strings.NewReader(goodDoc2)); err != nil {
		t.Fatal(err)
	}
	if x.Documents != 2 || x.Sequences["rec"].Total() != 2 {
		t.Errorf("post-failure ingestion broken: %d docs, rec=%v", x.Documents, x.Sequences["rec"].Strings())
	}
}

func TestAddDocumentAtomicOnUnbalanced(t *testing.T) {
	// Truncated input: every element well-formed so far, then EOF with open
	// tags. The decoder reports no token error, only the unbalanced check.
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(goodDoc1)); err != nil {
		t.Fatal(err)
	}
	before := snapshot(x)
	truncated := `<db><rec id="t1" kind="x"><name>n</name>`
	if err := x.AddDocument(strings.NewReader(truncated)); err == nil {
		t.Fatal("truncated document must fail")
	}
	if after := snapshot(x); after != before {
		t.Errorf("truncated document mutated the extraction:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestAddDocumentAtomicOnLimit(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(goodDoc1)); err != nil {
		t.Fatal(err)
	}
	before := snapshot(x)
	deep := strings.Repeat("<d>", 50) + strings.Repeat("</d>", 50)
	err := x.AddDocumentOptions(strings.NewReader(deep), &IngestOptions{MaxDepth: 10})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
	if after := snapshot(x); after != before {
		t.Errorf("limit violation mutated the extraction")
	}
}

func deepDoc(depth int) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<d>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</d>")
	}
	return b.String()
}

func TestIngestLimits(t *testing.T) {
	wide := `<r><a/><b/><c/><d/><e/></r>`
	tests := []struct {
		name  string
		doc   string
		opts  IngestOptions
		limit string // expected LimitError.Limit, "" = accepted
	}{
		{"no limits", deepDoc(100), IngestOptions{}, ""},
		{"depth under cap", deepDoc(100), IngestOptions{MaxDepth: 100}, ""},
		{"depth over cap", deepDoc(101), IngestOptions{MaxDepth: 100}, "depth"},
		{"billion-laughs-style nesting", deepDoc(200_000), IngestOptions{MaxDepth: 1_000}, "depth"},
		{"tokens over cap", wide, IngestOptions{MaxTokens: 5}, "tokens"},
		{"tokens under cap", wide, IngestOptions{MaxTokens: 1_000}, ""},
		{"names over cap", wide, IngestOptions{MaxNames: 3}, "names"},
		{"names under cap", wide, IngestOptions{MaxNames: 6}, ""},
		{"bytes over cap", wide, IngestOptions{MaxBytes: 10}, "bytes"},
		{"bytes under cap", wide, IngestOptions{MaxBytes: 1 << 20}, ""},
		{"defaults accept sane documents", wide, *DefaultIngestOptions(), ""},
	}
	for _, tc := range tests {
		// The cap/XML-bomb corpus must hold under ingestion and under the
		// oracle the fuzz targets compare it with.
		for _, ref := range sequentialRefs {
			opts := tc.opts
			t.Run(tc.name+"/"+ref.name, func(t *testing.T) {
				x := NewExtraction()
				_, err := ref.add(x, []Doc{{Label: "doc", R: strings.NewReader(tc.doc)}}, &opts, FailFast)
				if tc.limit == "" {
					if err != nil {
						t.Fatalf("want accept, got %v", err)
					}
					return
				}
				var le *LimitError
				if !errors.As(err, &le) {
					t.Fatalf("want *LimitError, got %v", err)
				}
				if le.Limit != tc.limit {
					t.Errorf("limit = %q, want %q (err: %v)", le.Limit, tc.limit, le)
				}
				if !errors.Is(err, ErrLimit) {
					t.Error("limit errors must match ErrLimit")
				}
				if !strings.Contains(le.Error(), tc.limit) {
					t.Errorf("error %q does not name the violated cap", le)
				}
				if x.Documents != 0 || len(x.Sequences) != 0 {
					t.Error("rejected document leaked state into the extraction")
				}
			})
		}
	}
}

func TestAddDocumentsSkipAndRecord(t *testing.T) {
	clean := NewExtraction()
	if _, err := clean.AddDocuments(readers(goodDoc1, goodDoc2), nil, FailFast); err != nil {
		t.Fatal(err)
	}
	wantDTD, _, err := inferDTD(clean, testInfer)
	if err != nil {
		t.Fatal(err)
	}

	x := NewExtraction()
	report, err := x.AddDocuments(readers(goodDoc1, badDoc, goodDoc2), nil, SkipAndRecord)
	if err != nil {
		t.Fatalf("skip-and-record must not return an error, got %v", err)
	}
	if report.Documents != 3 || report.Accepted != 2 || report.Rejected != 1 {
		t.Errorf("report counters = %+v", report)
	}
	if len(report.Errors) != 1 {
		t.Fatalf("want exactly one per-document error, got %v", report.Errors)
	}
	if e := report.Errors[0]; e.Index != 1 || e.Label != "document 1" || e.Err == nil {
		t.Errorf("error = %+v", e)
	}
	if report.Err() == nil {
		t.Error("Err() must surface the recorded failure")
	}
	if snapshot(x) != snapshot(clean) {
		t.Errorf("skip policy left different state than the clean batch:\n%s\nvs\n%s",
			snapshot(x), snapshot(clean))
	}
	got, _, err := inferDTD(x, testInfer)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantDTD) {
		t.Errorf("DTD with skipped document differs:\n%s\nvs\n%s", got, wantDTD)
	}
	if !strings.Contains(report.String(), "2/3") {
		t.Errorf("report summary unexpected: %s", report)
	}
}

func TestAddDocumentsFailFast(t *testing.T) {
	x := NewExtraction()
	report, err := x.AddDocuments(readers(goodDoc1, badDoc, goodDoc2), nil, FailFast)
	if err == nil {
		t.Fatal("fail-fast must surface the error")
	}
	var de *DocumentError
	if !errors.As(err, &de) || de.Index != 1 {
		t.Errorf("error = %v, want DocumentError at index 1", err)
	}
	// Documents before the failure are committed; the batch stops there.
	if report.Documents != 2 || report.Accepted != 1 || report.Rejected != 1 {
		t.Errorf("report = %+v", report)
	}
	if x.Documents != 1 {
		t.Errorf("committed documents = %d, want 1", x.Documents)
	}
}

func TestAddDocsLabels(t *testing.T) {
	x := NewExtraction()
	docs := []Doc{
		{Label: "good.xml", R: strings.NewReader(goodDoc1)},
		{Label: "bad.xml", R: strings.NewReader(badDoc)},
	}
	report, _ := x.AddDocs(docs, nil, SkipAndRecord)
	if len(report.Errors) != 1 || report.Errors[0].Label != "bad.xml" {
		t.Errorf("errors = %v", report.Errors)
	}
	if !strings.Contains(report.Errors[0].Error(), "bad.xml") {
		t.Errorf("error string misses label: %v", report.Errors[0])
	}
}

func TestIngestReportCounters(t *testing.T) {
	x := NewExtraction()
	report, err := x.AddDocuments(readers(goodDoc1), nil, FailFast)
	if err != nil {
		t.Fatal(err)
	}
	if report.Bytes != int64(len(goodDoc1)) {
		t.Errorf("bytes = %d, want %d", report.Bytes, len(goodDoc1))
	}
	// goodDoc1 has 3 start elements: db, rec, name.
	if report.Elements != 3 {
		t.Errorf("elements = %d, want 3", report.Elements)
	}
	if report.Tokens < report.Elements*2 {
		t.Errorf("tokens = %d, implausibly low", report.Tokens)
	}
}

func TestMergeEquivalentToDirectIngest(t *testing.T) {
	direct := NewExtraction()
	for _, d := range []string{goodDoc1, goodDoc2, sampleDoc} {
		if err := direct.AddDocument(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := NewExtraction(), NewExtraction()
	if err := a.AddDocument(strings.NewReader(goodDoc1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(strings.NewReader(goodDoc2)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(strings.NewReader(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if snapshot(a) != snapshot(direct) {
		t.Errorf("merge differs from direct ingestion:\n%s\nvs\n%s", snapshot(a), snapshot(direct))
	}
}

func TestMergeRespectsTextSampleCap(t *testing.T) {
	a, b := NewExtraction(), NewExtraction()
	for i := 0; i < maxTextSamples; i++ {
		a.TextSamples["e"] = append(a.TextSamples["e"], "a")
		b.TextSamples["e"] = append(b.TextSamples["e"], "b")
	}
	a.Merge(b)
	if len(a.TextSamples["e"]) != maxTextSamples {
		t.Errorf("samples = %d, want cap %d", len(a.TextSamples["e"]), maxTextSamples)
	}
}

func TestInferDTDStats(t *testing.T) {
	x := NewExtraction()
	if err := x.AddDocument(strings.NewReader(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	d, stats, err := inferDTD(x, testInfer)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || stats == nil {
		t.Fatal("want DTD and stats")
	}
	if len(stats.PerElement) != len(x.Sequences) {
		t.Errorf("timings for %d elements, want %d", len(stats.PerElement), len(x.Sequences))
	}
	byName := map[string]ElementTiming{}
	for _, et := range stats.PerElement {
		byName[et.Name] = et
	}
	if et, ok := byName["entry"]; !ok || et.Sequences != 2 {
		t.Errorf("entry timing = %+v", et)
	}
	if !strings.Contains(stats.String(), "entry") {
		t.Errorf("stats rendering misses elements:\n%s", stats)
	}
}

// TestInferDTDConcurrentReuse exercises the worker pool under the race
// detector: concurrent inference over one shared (read-only) extraction
// must be safe, since callers cache extractions across requests.
func TestInferDTDConcurrentReuse(t *testing.T) {
	x := NewExtraction()
	for _, d := range []string{goodDoc1, goodDoc2, sampleDoc} {
		if err := x.AddDocument(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	dtds := make([]*DTD, 8)
	for i := range dtds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := inferDTD(x, testInfer)
			if err != nil {
				t.Errorf("concurrent inference: %v", err)
				return
			}
			dtds[i] = d
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(dtds); i++ {
		if dtds[i] == nil || dtds[0] == nil {
			t.Fatal("missing result")
		}
		if !dtds[i].Equal(dtds[0]) {
			t.Errorf("inference is not deterministic under concurrency:\n%s\nvs\n%s", dtds[i], dtds[0])
		}
	}
}

func readers(docs ...string) []io.Reader {
	out := make([]io.Reader, len(docs))
	for i, d := range docs {
		out[i] = strings.NewReader(d)
	}
	return out
}
