package dtd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// countingInferrer is a deterministic children-content inferrer that
// counts how often the "engine" actually runs: (a1|...|an)* over the
// sample's alphabet.
func countingInferrer(calls *atomic.Int64) InferElementFunc {
	return func(ctx context.Context, name string, s *sample.Set) (*regex.Expr, *ElementOutcome, error) {
		calls.Add(1)
		syms := s.Symbols()
		subs := make([]*regex.Expr, len(syms))
		for i, sym := range syms {
			subs[i] = regex.Sym(sym)
		}
		return regex.Simplify(regex.Star(regex.Union(subs...))),
			&ElementOutcome{Name: name, Engine: "counting"}, nil
	}
}

func mustAdd(t *testing.T, x *Extraction, doc string) {
	t.Helper()
	if err := x.AddDocument(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
}

// TestCachedInferenceHitsAndRecomputes drives the per-element model
// cache through its three outcomes: a cold pass misses everywhere, an
// unchanged pass hits everywhere without running the engine, and a pass
// after one element's sample gained a new shape recomputes exactly that
// element.
func TestCachedInferenceHitsAndRecomputes(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a><c/></a><b><c/></b></r>`)
	cfg := &CacheConfig{Key: "test"}
	var calls atomic.Int64

	// Children-content elements: r, a, b (c is EMPTY, structural).
	d1, s1, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("cold pass ran engine %d times, want 3", got)
	}
	if s1.CacheMisses != 3 || s1.CacheHits != 0 || s1.CacheRecomputes != 0 {
		t.Errorf("cold pass counters: %d hits %d misses %d recomputes, want 0/3/0",
			s1.CacheHits, s1.CacheMisses, s1.CacheRecomputes)
	}

	calls.Store(0)
	d2, s2, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("warm pass ran engine %d times, want 0", got)
	}
	if s2.CacheHits != 3 || s2.CacheMisses != 0 || s2.CacheRecomputes != 0 {
		t.Errorf("warm pass counters: %d hits %d misses %d recomputes, want 3/0/0",
			s2.CacheHits, s2.CacheMisses, s2.CacheRecomputes)
	}
	if d1.String() != d2.String() {
		t.Errorf("warm pass not byte-identical:\ncold: %s\nwarm: %s", d1, d2)
	}

	// New shape for a only: [c c]. r re-observes [a b], b re-observes [c].
	mustAdd(t, x, `<r><a><c/><c/></a><b><c/></b></r>`)
	calls.Store(0)
	_, s3, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("update pass ran engine %d times, want 1", got)
	}
	if s3.CacheHits != 2 || s3.CacheRecomputes != 1 || s3.CacheMisses != 0 {
		t.Errorf("update pass counters: %d hits %d misses %d recomputes, want 2/0/1",
			s3.CacheHits, s3.CacheMisses, s3.CacheRecomputes)
	}
}

// TestCachedInferenceCountedFingerprint: under a count-sensitive config,
// re-ingesting an already-seen document (multiplicity bump, no new
// shape) must recompute; under a shape-only config it must hit.
func TestCachedInferenceCountedFingerprint(t *testing.T) {
	doc := `<r><a/><a/></r>`
	for _, tc := range []struct {
		counted                bool
		wantHits, wantRecomput int
	}{
		{counted: false, wantHits: 1, wantRecomput: 0},
		{counted: true, wantHits: 0, wantRecomput: 1},
	} {
		x := NewExtraction()
		mustAdd(t, x, doc)
		cfg := &CacheConfig{Key: fmt.Sprintf("counted=%t", tc.counted), Counted: tc.counted}
		var calls atomic.Int64
		if _, _, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls)); err != nil {
			t.Fatal(err)
		}
		mustAdd(t, x, doc) // same shapes again: counts move, shapes don't
		_, s, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
		if err != nil {
			t.Fatal(err)
		}
		if s.CacheHits != tc.wantHits || s.CacheRecomputes != tc.wantRecomput {
			t.Errorf("counted=%t: %d hits %d recomputes, want %d/%d",
				tc.counted, s.CacheHits, s.CacheRecomputes, tc.wantHits, tc.wantRecomput)
		}
	}
}

// TestCachedInferenceConfigKeysIsolated: two configurations never share
// cache entries, even on the same extraction.
func TestCachedInferenceConfigKeysIsolated(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a/></r>`)
	var calls atomic.Int64
	if _, _, err := x.InferDTDElementsCached(context.Background(), &CacheConfig{Key: "one"}, countingInferrer(&calls)); err != nil {
		t.Fatal(err)
	}
	_, s, err := x.InferDTDElementsCached(context.Background(), &CacheConfig{Key: "two"}, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Errorf("different key reused entries: %d hits %d misses", s.CacheHits, s.CacheMisses)
	}
}

// TestCachedInferenceFailedPassKeepsFills: a pass that fails keeps the
// models it did compute, so the next pass hits them and runs the engine
// only for the element that failed.
func TestCachedInferenceFailedPassKeepsFills(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a><b/></a></r>`)
	cfg := &CacheConfig{Key: "test"}
	boom := errors.New("boom")
	var calls atomic.Int64
	failing := func(ctx context.Context, name string, s *sample.Set) (*regex.Expr, *ElementOutcome, error) {
		if name == "a" {
			return nil, nil, boom
		}
		return countingInferrer(&calls)(ctx, name, s)
	}
	if _, _, err := x.InferDTDElementsCached(context.Background(), cfg, failing); !errors.Is(err, boom) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	calls.Store(0)
	_, s, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheHits != 1 || s.CacheMisses != 1 || s.CacheRecomputes != 0 {
		t.Errorf("pass after the failure: %d hits %d misses %d recomputes, want 1/1/0 (r filled, a not)",
			s.CacheHits, s.CacheMisses, s.CacheRecomputes)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("pass after the failure ran engine %d times, want 1 (a only)", got)
	}
}

// TestCachedInferenceInvalidate: InvalidateCache forces a full cold
// pass.
func TestCachedInferenceInvalidate(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<r><a/></r>`)
	cfg := &CacheConfig{Key: "test"}
	var calls atomic.Int64
	if _, _, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls)); err != nil {
		t.Fatal(err)
	}
	x.InvalidateCache()
	_, s, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Errorf("after invalidation: %d hits %d misses, want 0/1", s.CacheHits, s.CacheMisses)
	}
}

// TestCacheValidityAcrossIngestionPaths: both commit paths — the shard
// commit, which every batch runs (sequential or pipelined, cancellable or
// not), and the Merge of a pipeline batch staged under a cancellable
// context — must keep the fingerprints the model cache is validated
// against. Every batch holds two documents, so at four workers it runs
// the pipeline, and the staged ones Merge into a warm extraction: after
// repeated documents every element hits, after a new shape for a exactly
// a recomputes, and the warm result equals a cold pass over the same
// documents.
func TestCacheValidityAcrossIngestionPaths(t *testing.T) {
	base := []string{
		`<r><a><c/></a><b>text</b></r>`,
		`<r><a><c/></a><b>more</b></r>`,
	}
	update := `<r><a><c/><c/></a><b>again</b></r>` // new shape for a only
	cfg := &CacheConfig{Key: "t"}
	for _, path := range []struct {
		workers int
		staged  bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		name := fmt.Sprintf("workers=%d staged=%v", path.workers, path.staged)
		x := NewExtraction()
		ingest := func(doc ...string) {
			docs := make([]Doc, len(doc))
			for i, d := range doc {
				docs[i] = Doc{Label: fmt.Sprintf("doc%d", i), R: strings.NewReader(d)}
			}
			ctx, cancel := context.Background(), func() {}
			if path.staged {
				ctx, cancel = context.WithCancel(ctx)
			}
			defer cancel()
			if _, err := x.AddDocsParallelContext(ctx, docs, path.workers, nil, FailFast); err != nil {
				t.Fatal(err)
			}
		}
		var calls atomic.Int64
		pass := func(want string, hits, misses, recomputes, engine int) *DTD {
			t.Helper()
			calls.Store(0)
			d, s, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
			if err != nil {
				t.Fatal(err)
			}
			if s.CacheHits != hits || s.CacheMisses != misses || s.CacheRecomputes != recomputes || calls.Load() != int64(engine) {
				t.Errorf("%s: %s pass: %d hits %d misses %d recomputes, %d engine runs; want %d/%d/%d, %d",
					name, want, s.CacheHits, s.CacheMisses, s.CacheRecomputes, calls.Load(), hits, misses, recomputes, engine)
			}
			return d
		}
		ingest(base...)
		pass("cold", 0, 2, 0, 2) // r and a have children content
		ingest(base...)          // already-seen shapes only
		pass("repeat", 2, 0, 0, 0)
		ingest(update, base[1])
		warm := pass("update", 1, 0, 1, 1)

		cold := NewExtraction()
		for _, doc := range append(append(base, base...), update, base[1]) {
			mustAdd(t, cold, doc)
		}
		want, _, err := cold.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
		if err != nil {
			t.Fatal(err)
		}
		if warm.String() != want.String() {
			t.Errorf("%s: warm DTD differs from a cold pass:\n got %s\nwant %s", name, warm, want)
		}
	}
}

// TestInferStatsStringCacheLine: the stats renderer reports the cache
// counters and whether <!ATTLIST> was replayed.
func TestInferStatsStringCacheLine(t *testing.T) {
	for _, tc := range []struct {
		stats InferStats
		want  string
	}{
		{InferStats{CacheHits: 2, CacheMisses: 1, CacheRecomputes: 3}, "cache: 2 hits, 1 misses, 3 recomputes; attlist recomputed"},
		{InferStats{CacheHits: 4, AttListReplayed: true}, "cache: 4 hits, 0 misses, 0 recomputes; attlist replayed"},
	} {
		if s := tc.stats.String(); !strings.Contains(s, tc.want) {
			t.Errorf("cache line missing or malformed, want %q:\n%s", tc.want, s)
		}
	}
}

// TestInferStatsStringOrder pins the order of the timing lines: slowest
// element first, elements of equal duration in DTD order.
func TestInferStatsStringOrder(t *testing.T) {
	ms := time.Millisecond
	stats := &InferStats{PerElement: []ElementTiming{
		{Name: "a", Duration: ms}, {Name: "b", Duration: 3 * ms}, {Name: "c", Duration: ms},
		{Name: "d", Duration: 3 * ms}, {Name: "e", Duration: 2 * ms}, {Name: "f", Duration: 0},
	}}
	var got []string
	for _, line := range strings.Split(stats.String(), "\n")[2:] {
		got = append(got, strings.Fields(line)[0])
	}
	if want := []string{"b", "d", "e", "a", "c", "f"}; !reflect.DeepEqual(got, want) {
		t.Errorf("timing order = %v, want %v", got, want)
	}
}
