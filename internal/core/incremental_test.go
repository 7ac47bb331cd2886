package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"dtdinfer/internal/dtd"
	"dtdinfer/internal/faultinject"
	"dtdinfer/internal/idtd"
)

func idtdNoise(n int) idtd.Options { return idtd.Options{NoiseThreshold: n} }

func addBatch(t *testing.T, inc *Incremental, docs ...string) {
	t.Helper()
	batch := make([]dtd.Doc, len(docs))
	for i, d := range docs {
		batch[i] = dtd.Doc{Label: "doc", R: strings.NewReader(d)}
	}
	if _, err := inc.AddDocs(context.Background(), batch, nil, dtd.FailFast); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSnapshotVersions: Refresh publishes monotonically
// versioned snapshots; unchanged corpora still publish (with full cache
// hits), and Current always returns the latest published value.
func TestIncrementalSnapshotVersions(t *testing.T) {
	inc := NewIncremental(IDTD, nil)
	if inc.Current() != nil {
		t.Fatal("snapshot published before first Refresh")
	}
	addBatch(t, inc, `<r><a/><b/></r>`)
	s1, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Version != 1 || inc.Current() != s1 {
		t.Fatalf("first publish: version=%d current=%p", s1.Version, inc.Current())
	}
	if s1.Documents != 1 {
		t.Errorf("snapshot documents = %d, want 1", s1.Documents)
	}
	s2, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 2 {
		t.Errorf("second publish version = %d, want 2", s2.Version)
	}
	if s2.Stats.CacheHits == 0 || s2.Stats.CacheMisses != 0 {
		t.Errorf("unchanged refresh: %d hits %d misses, want all hits", s2.Stats.CacheHits, s2.Stats.CacheMisses)
	}
	if s1.DTD.String() != s2.DTD.String() {
		t.Error("unchanged refresh altered the DTD")
	}
}

// TestIncrementalFailedRefreshKeepsSnapshot: a Refresh whose engine
// fails publishes nothing — readers keep the previous snapshot at its
// previous version — and a later successful Refresh picks up where the
// corpus actually is.
func TestIncrementalFailedRefreshKeepsSnapshot(t *testing.T) {
	defer faultinject.Reset()
	inc := NewIncremental(IDTD, &Options{Degrade: DegradeFail})
	addBatch(t, inc, `<r><a><c/></a></r>`)
	s1, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Change element a's sample so the next pass must re-enter the
	// engine for it, then make that engine fail.
	addBatch(t, inc, `<r><a><c/><c/></a></r>`)
	boom := errors.New("injected engine failure")
	faultinject.Set(FaultPoint(IDTD), "a", faultinject.Fault{Err: boom})
	if _, err := inc.Refresh(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	cur := inc.Current()
	if cur != s1 {
		t.Fatalf("failed refresh replaced the snapshot: %p -> %p", s1, cur)
	}
	if cur.Version != 1 {
		t.Fatalf("failed refresh moved the version to %d", cur.Version)
	}

	faultinject.Reset()
	s2, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version != 2 {
		t.Errorf("recovery publish version = %d, want 2", s2.Version)
	}
	if s2.DTD.String() == s1.DTD.String() {
		t.Error("recovery publish did not reflect the new sample")
	}
}

// TestChangeFeed: the feed line names what changed between snapshots,
// including the initial publish (everything added) and the no-change
// case.
func TestChangeFeed(t *testing.T) {
	inc := NewIncremental(IDTD, nil)
	addBatch(t, inc, `<r><a/></r>`)
	s1, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	initial := ChangeFeed(nil, s1)
	for _, want := range []string{"v0→v1:", "added", "<a>"} {
		if !strings.Contains(initial, want) {
			t.Errorf("initial feed %q missing %q", initial, want)
		}
	}

	addBatch(t, inc, `<r><a/><b/></r>`)
	s2, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	feed := ChangeFeed(s1, s2)
	for _, want := range []string{"v1→v2:", "modified <r>", "added <b>"} {
		if !strings.Contains(feed, want) {
			t.Errorf("feed %q missing %q", feed, want)
		}
	}

	s3, err := inc.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if feed := ChangeFeed(s2, s3); !strings.Contains(feed, "no changes") {
		t.Errorf("unchanged feed %q should say no changes", feed)
	}
}

// TestCountSensitive pins the per-engine fingerprint choice: shape-only
// constructions stay warm across multiplicity-only growth; anything that
// weighs occurrence counts must recompute.
func TestCountSensitive(t *testing.T) {
	for _, tc := range []struct {
		algo Algorithm
		opts Options
		want bool
	}{
		{IDTD, Options{}, false},
		{IDTD, Options{IDTD: idtdNoise(2)}, true},
		{CRX, Options{}, false},
		{RewriteOnly, Options{}, false},
		{TrangLike, Options{}, false},
		{StateElim, Options{}, false},
		{XTRACT, Options{}, true},
		{CRX, Options{NumericPredicates: true}, true},
	} {
		if got := countSensitive(tc.algo, &tc.opts); got != tc.want {
			t.Errorf("countSensitive(%s, %+v) = %t, want %t", tc.algo, tc.opts, got, tc.want)
		}
	}
}

// TestCacheConfigKeysDiffer: configurations that can change engine
// output must key distinct cache namespaces.
func TestCacheConfigKeysDiffer(t *testing.T) {
	base := cacheConfig(IDTD, nil)
	for name, opts := range map[string]*Options{
		"numeric": {NumericPredicates: true},
		"budget":  {Budget: Budget{MaxExprSize: 10}},
		"degrade": {Degrade: DegradeLadder},
		"noise":   {IDTD: idtdNoise(1)},
	} {
		if c := cacheConfig(IDTD, opts); c.Key == base.Key {
			t.Errorf("%s options did not change the cache key", name)
		}
	}
	if c := cacheConfig(CRX, nil); c.Key == base.Key {
		t.Error("algorithm did not change the cache key")
	}
}

// TestInferDTDFromExtractionConcurrentCachedPasses runs eight passes at
// once on one extraction, iDTD and CRX interleaved. A pass fills the
// model cache and replaces the ATTLIST memo, so passes on one extraction
// must serialize; each result must still equal its engine's result on an
// extraction of its own.
func TestInferDTDFromExtractionConcurrentCachedPasses(t *testing.T) {
	docs := []string{
		`<r id="r1"><a x="1"/><b/><a x="2"/></r>`,
		`<r id="r2"><a/><b>text</b><b/></r>`,
	}
	extract := func() *dtd.Extraction {
		x := dtd.NewExtraction()
		for _, d := range docs {
			if err := x.AddDocument(strings.NewReader(d)); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}
	algos := []Algorithm{IDTD, CRX}
	want := map[Algorithm]string{}
	for _, a := range algos {
		d, err := InferDTDFromExtraction(extract(), a, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[a] = d.String()
	}
	x := extract()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := InferDTDFromExtraction(x, algos[i%len(algos)], nil)
			if err != nil {
				t.Errorf("pass %d: %v", i, err)
				return
			}
			got[i] = d.String()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if a := algos[i%len(algos)]; g != want[a] {
			t.Errorf("pass %d (%s):\n%s\nwant\n%s", i, a, g, want[a])
		}
	}
}
