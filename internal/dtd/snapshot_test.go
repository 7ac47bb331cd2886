package dtd

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dtdinfer/internal/sample"
	snap "dtdinfer/internal/snapshot"
)

// snapshotCorpus is a corpus exercising every serialized observation
// kind: children content with duplicate sequences, text and mixed
// content, attributes (ID-like, enum-like, plain), empty elements and
// multiple roots.
var snapshotCorpus = []string{
	`<db><rec id="a1" kind="x"><name>n1</name><tag/></rec></db>`,
	`<db><rec id="a2" kind="y"><name>n2</name><name>n3</name></rec></db>`,
	`<db><rec id="a3" kind="x"><name>n4</name><tag/></rec><note>mixed <b>bold</b> tail</note></db>`,
	`<alt><rec id="a4" kind="y"><name>n5</name></rec></alt>`,
}

// buildSnapshotExtraction ingests snapshotCorpus with add: AddDocs, or
// the encoding/xml oracle.
func buildSnapshotExtraction(t *testing.T, add func(*Extraction, []Doc, *IngestOptions, ErrorPolicy) (*IngestReport, error)) *Extraction {
	t.Helper()
	x := NewExtraction()
	docs := make([]Doc, len(snapshotCorpus))
	for i, doc := range snapshotCorpus {
		docs[i] = Doc{Label: "doc", R: strings.NewReader(doc)}
	}
	if _, err := add(x, docs, nil, FailFast); err != nil {
		t.Fatal(err)
	}
	return x
}

func saveSnapshot(t *testing.T, x *Extraction) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func loadSnapshot(t *testing.T, data []byte) *Extraction {
	t.Helper()
	x, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return x
}

// TestSnapshotRoundTripIdentical pins the losslessness contract for
// extractions built by ingestion and by its encoding/xml oracle: the
// loaded extraction renders identically, infers a byte-identical DTD, and
// re-saves to byte-identical bytes.
func TestSnapshotRoundTripIdentical(t *testing.T) {
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			x := buildSnapshotExtraction(t, ref.add)
			data := saveSnapshot(t, x)
			loaded := loadSnapshot(t, data)
			if got, want := snapshot(loaded), snapshot(x); got != want {
				t.Fatalf("loaded extraction differs:\n got %s\nwant %s", got, want)
			}
			if got := saveSnapshot(t, loaded); !bytes.Equal(got, data) {
				t.Fatalf("re-save differs: %d bytes vs %d", len(got), len(data))
			}
			want, _, err := inferDTD(x, testInfer)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := inferDTD(loaded, testInfer)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("inference over loaded extraction differs:\n got %s\nwant %s", got, want)
			}
			if loaded.Root() != x.Root() {
				t.Fatalf("Root = %q, want %q", loaded.Root(), x.Root())
			}
		})
	}
}

// TestSnapshotSaveDeterministic pins the canonical encoding: saving the
// same extraction twice yields identical bytes, and extractions built by
// ingestion and by the encoding/xml oracle (whose internal map histories
// differ) save to identical bytes too.
func TestSnapshotSaveDeterministic(t *testing.T) {
	fast := buildSnapshotExtraction(t, (*Extraction).AddDocs)
	std := buildSnapshotExtraction(t, (*Extraction).stdAddDocs)
	a := saveSnapshot(t, fast)
	if b := saveSnapshot(t, fast); !bytes.Equal(a, b) {
		t.Fatal("two saves of one extraction differ")
	}
	if c := saveSnapshot(t, std); !bytes.Equal(a, c) {
		t.Fatal("ingestion- and oracle-built extractions save differently")
	}
}

// TestSnapshotDirtySectionCompat loads a summary of snapshotCorpus that
// was saved before any inference pass by a build that still tracked
// dirty elements, so its dirty section lists every element. The names are
// checked and dropped: the loaded extraction infers byte-identically to
// a fresh ingestion of the same documents and re-saves to the fresh
// extraction's bytes, whose dirty section is empty.
func TestSnapshotDirtySectionCompat(t *testing.T) {
	data, err := os.ReadFile("testdata/dirty_set.summary")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alt", "b", "db", "name", "note", "rec", "tag"}
	if got := dirtyNames(t, data); !equalStrings(got, want) {
		t.Fatalf("fixture dirty section = %v, want %v", got, want)
	}
	loaded := loadSnapshot(t, data)
	fresh := buildSnapshotExtraction(t, (*Extraction).AddDocs)
	resaved := saveSnapshot(t, loaded)
	if got := dirtyNames(t, resaved); len(got) != 0 {
		t.Fatalf("re-saved dirty section = %v, want empty", got)
	}
	if !bytes.Equal(resaved, saveSnapshot(t, fresh)) {
		t.Fatal("re-saved summary differs from a fresh ingestion's")
	}
	got, _, err := inferDTD(loaded, testInfer)
	if err != nil {
		t.Fatal(err)
	}
	wantDTD, _, err := inferDTD(fresh, testInfer)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != wantDTD.String() {
		t.Fatalf("inference over the loaded summary differs:\n got %s\nwant %s", got, wantDTD)
	}
}

// dirtyNames decodes a summary up to its dirty section and returns the
// names listed there.
func dirtyNames(t *testing.T, data []byte) []string {
	t.Helper()
	sr, err := snap.NewReader(bytes.NewReader(data), snapMagic)
	if err != nil {
		t.Fatal(err)
	}
	x := NewExtraction()
	sr.Int() // maxTextSamples
	sr.Int() // maxAttValues
	sr.Int() // documents
	for i, n := 0, sr.Len(6); i < n && sr.Err() == nil; i++ {
		x.readElement(sr, sr.String())
	}
	readSortedCounts(sr, "root", func(string, int) {})
	var names []string
	for i, n := 0, sr.Len(1); i < n && sr.Err() == nil; i++ {
		names = append(names, sr.String())
	}
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSnapshotKeepsInferenceWarm pins the "warm across restarts"
// contract: a snapshot taken after a cached inference pass replays both
// the content models and the <!ATTLIST> declarations on the loaded
// extraction without running any engine.
func TestSnapshotKeepsInferenceWarm(t *testing.T) {
	x := buildSnapshotExtraction(t, (*Extraction).AddDocs)
	cfg := &CacheConfig{Key: "test"}
	var calls atomic.Int64
	want, _, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("cold pass ran no engines")
	}

	loaded := loadSnapshot(t, saveSnapshot(t, x))
	calls.Store(0)
	got, stats, err := loaded.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("post-load pass ran engine %d times, want 0", n)
	}
	if stats.CacheMisses != 0 || stats.CacheRecomputes != 0 {
		t.Errorf("post-load counters: %d misses %d recomputes, want 0/0",
			stats.CacheMisses, stats.CacheRecomputes)
	}
	if !stats.AttListReplayed {
		t.Error("post-load pass recomputed <!ATTLIST> despite warm attribute cache")
	}
	if got.String() != want.String() {
		t.Fatalf("warm post-load DTD differs:\n got %s\nwant %s", got, want)
	}

	// A different engine config must not be served from the persisted
	// entries of another.
	calls.Store(0)
	if _, _, err := loaded.InferDTDElementsCached(context.Background(), &CacheConfig{Key: "other"}, countingInferrer(&calls)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Error("foreign config served from persisted cache entries")
	}
}

// TestMergeSummaryShardsEquivalentToSingleIngestion splits the corpus
// into K shards, ingests each into its own extraction, round-trips each
// through snapshot bytes, merges in shard order, and requires the
// result byte-identical — both as a rendered extraction and as re-saved
// snapshot bytes — to ingesting everything sequentially, through AddDocs
// or through the encoding/xml oracle.
func TestMergeSummaryShardsEquivalentToSingleIngestion(t *testing.T) {
	for _, ref := range sequentialRefs {
		t.Run(ref.name, func(t *testing.T) {
			direct := buildSnapshotExtraction(t, ref.add)
			directBytes := saveSnapshot(t, direct)
			for k := 1; k <= len(snapshotCorpus); k++ {
				var shards []*Extraction
				for start := 0; start < len(snapshotCorpus); start += k {
					sx := NewExtraction()
					for _, doc := range snapshotCorpus[start:min(start+k, len(snapshotCorpus))] {
						if err := sx.AddDocument(strings.NewReader(doc)); err != nil {
							t.Fatal(err)
						}
					}
					shards = append(shards, loadSnapshot(t, saveSnapshot(t, sx)))
				}
				merged := shards[0]
				for _, sx := range shards[1:] {
					merged.MergeSummary(sx)
				}
				if got, want := snapshot(merged), snapshot(direct); got != want {
					t.Fatalf("shard size %d: merged extraction differs:\n got %s\nwant %s", k, got, want)
				}
				if got := saveSnapshot(t, merged); !bytes.Equal(got, directBytes) {
					t.Fatalf("shard size %d: merged snapshot bytes differ", k)
				}
			}
		})
	}
}

// TestMergeSummaryAdoptsCaches: merging a warmed, snapshot-loaded
// summary into an empty extraction carries the memoized models along,
// so inference over the merge runs no engines.
func TestMergeSummaryAdoptsCaches(t *testing.T) {
	x := buildSnapshotExtraction(t, (*Extraction).AddDocs)
	cfg := &CacheConfig{Key: "test"}
	var calls atomic.Int64
	want, _, err := x.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadSnapshot(t, saveSnapshot(t, x))

	base := NewExtraction()
	base.MergeSummary(loaded)
	calls.Store(0)
	got, stats, err := base.InferDTDElementsCached(context.Background(), cfg, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("inference after cache-adopting merge ran engine %d times, want 0", n)
	}
	if !stats.AttListReplayed {
		t.Error("<!ATTLIST> recomputed after cache-adopting merge")
	}
	if got.String() != want.String() {
		t.Fatalf("DTD after cache-adopting merge differs:\n got %s\nwant %s", got, want)
	}
}

// TestAttListCacheFingerprintTracking pins the attribute fingerprint:
// warm passes replay <!ATTLIST>, attribute-relevant changes (new value,
// presence bump, occurrence-total change of an attributed element)
// invalidate, and attribute-irrelevant ingestion does not.
func TestAttListCacheFingerprintTracking(t *testing.T) {
	x := NewExtraction()
	mustAdd(t, x, `<db><rec id="a1" kind="x"/><plain/></db>`)
	mustAdd(t, x, `<db><rec id="a2" kind="y"/></db>`)
	mustAdd(t, x, `<db><rec id="a3" kind="x"/></db>`)
	cfg := &CacheConfig{Key: "test"}
	var calls atomic.Int64
	infer := countingInferrer(&calls)
	ctx := context.Background()

	pass := func() (*DTD, *InferStats) {
		t.Helper()
		d, stats, err := x.InferDTDElementsCached(ctx, cfg, infer)
		if err != nil {
			t.Fatal(err)
		}
		return d, stats
	}

	cold, stats := pass()
	if stats.AttListReplayed {
		t.Fatal("cold pass claims attlist replay")
	}
	if _, stats = pass(); !stats.AttListReplayed {
		t.Fatal("warm pass recomputed attlist")
	}

	// Ingesting attribute-free content (element "plain" and the
	// attribute-less root "db" recur; no attributed element changes)
	// keeps the attlist cache valid.
	mustAdd(t, x, `<db><plain/><plain/></db>`)
	var d *DTD
	if d, stats = pass(); !stats.AttListReplayed {
		t.Fatal("attribute-irrelevant ingestion invalidated the attlist cache")
	}
	if got, want := attsOf(d, "rec"), attsOf(cold, "rec"); got != want {
		t.Fatalf("replayed attlist differs: %q vs %q", got, want)
	}

	// A new occurrence of the attributed element changes its #REQUIRED
	// denominator: must recompute.
	mustAdd(t, x, `<db><rec id="a4" kind="y"/></db>`)
	if _, stats = pass(); stats.AttListReplayed {
		t.Fatal("occurrence-total change did not invalidate the attlist cache")
	}
	if _, stats = pass(); !stats.AttListReplayed {
		t.Fatal("cache not re-warmed after recompute")
	}

	// A new distinct value on a tracked attribute: must recompute and
	// the new declaration must reflect it. (Two occurrences, so the
	// enumeration heuristic's repeat requirement admits the value.)
	mustAdd(t, x, `<db><rec id="a5" kind="z"/><rec id="a6" kind="z"/></db>`)
	d, stats = pass()
	if stats.AttListReplayed {
		t.Fatal("new attribute value did not invalidate the attlist cache")
	}
	if got := attsOf(d, "rec"); !strings.Contains(got, "z") {
		t.Fatalf("recomputed attlist misses new enum value: %q", got)
	}
}

// attsOf renders an element's attribute declarations.
func attsOf(d *DTD, elem string) string {
	e := d.Elements[elem]
	if e == nil {
		return ""
	}
	var b strings.Builder
	for _, a := range e.Attributes {
		b.WriteString(a.String())
		b.WriteByte(';')
	}
	return b.String()
}

// TestSnapshotDecodeRejectsCorruption sweeps structured mutations over
// a valid snapshot: every truncation and every bit flip must fail with
// a clean error (fingerprints and CRC catching what field validation
// does not), never a panic, never silent acceptance.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	x := buildSnapshotExtraction(t, (*Extraction).AddDocs)
	data := saveSnapshot(t, x)
	for n := 0; n < len(data); n++ {
		if _, err := ReadSnapshot(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", n)
		}
	}
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x20
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", pos)
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(data, 0))); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

// TestSnapshotDecodeRejectsForgedStreams hand-crafts streams with valid
// framing but invalid content: wrong version, incompatible caps, a
// fingerprint that does not match the sequences.
func TestSnapshotDecodeRejectsForgedStreams(t *testing.T) {
	forge := func(build func(w *snap.Writer)) []byte {
		var buf bytes.Buffer
		w := snap.NewWriter(&buf, snapMagic, snapVersion)
		build(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	badVersion := forge(func(w *snap.Writer) {})
	badVersion[len(snapMagic)] = snapVersion + 1
	if _, err := ReadSnapshot(bytes.NewReader(badVersion)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version: err = %v", err)
	}

	wrongCaps := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples + 1)
		w.Len(maxAttValues)
	})
	if _, err := ReadSnapshot(bytes.NewReader(wrongCaps)); err == nil || !strings.Contains(err.Error(), "maxTextSamples") {
		t.Fatalf("wrong caps: err = %v", err)
	}

	// One element, one sequence over one symbol, but a forged (zeroed)
	// fingerprint: content validation must catch it even though the CRC
	// is valid.
	forgedFp := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(1) // documents
		w.Len(1) // elements
		w.String("a")
		w.Bool(true) // has sample
		w.Len(1)     // symbols
		w.String("b")
		w.Len(1) // sequences
		w.Len(1) // seq len
		w.Uvarint(0)
		w.Len(1) // count
		w.U64(0) // shape fp: forged
		w.U64(0) // counted fp: forged
		w.Bool(false)
		w.Bool(false)
		w.Len(0) // texts
		w.Len(0) // atts
		w.Len(0) // roots
		w.Len(0) // dirty
		w.Len(0) // model cache
		w.Bool(false)
	})
	if _, err := ReadSnapshot(bytes.NewReader(forgedFp)); err == nil || !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("forged fingerprint: err = %v", err)
	}

	// Same stream with out-of-order element records (b before a).
	outOfOrder := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(0) // documents
		w.Len(2) // elements
		for _, name := range []string{"b", "a"} {
			w.String(name)
			w.Bool(false)
			w.Bool(false)
			w.Bool(false)
			w.Len(0)
			w.Len(0)
		}
		w.Len(0)
		w.Len(0)
		w.Len(0)
		w.Bool(false)
	})
	if _, err := ReadSnapshot(bytes.NewReader(outOfOrder)); err == nil || !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("out-of-order elements: err = %v", err)
	}

	// Dirty element names, which the decoder drops, must still be in
	// order.
	dirtyOutOfOrder := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(0) // documents
		w.Len(0) // elements
		w.Len(0) // roots
		w.Len(2) // dirty
		w.String("b")
		w.String("a")
		w.Len(0) // model cache
		w.Bool(false)
	})
	if _, err := ReadSnapshot(bytes.NewReader(dirtyOutOfOrder)); !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "dirty set out of order") {
		t.Fatalf("out-of-order dirty names: err = %v", err)
	}

	// A sequence count far beyond the records that follow: the decoder
	// reserves room for at most maxReservedSequences sequences before
	// reading them, so the lie costs a bounded allocation, then an error.
	hugeCount := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(1) // documents
		w.Len(1) // elements
		w.String("a")
		w.Bool(true) // has sample
		w.Len(1)     // symbols
		w.String("b")
		w.Len(1 << 40) // sequences: forged
		w.Len(1)       // seq len
		w.Uvarint(0)
		w.Len(1) // count
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(bytes.NewReader(hugeCount))
	runtime.ReadMemStats(&after)
	if err == nil || !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("forged sequence count: err = %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("forged sequence count: decoding allocated %d bytes", n)
	}

	// The same lie padded so the bytes left could hold that many
	// two-byte records: Reader.Len, which rejects the count above
	// outright, lets this one through, so the maxReservedSequences cap is
	// what bounds the allocation before the first padding record (an
	// empty sequence with multiplicity 0) fails. Reserving the full count
	// would allocate over ten times the padding.
	const padding = 1 << 20
	paddedCount := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(1) // documents
		w.Len(1) // elements
		w.String("a")
		w.Bool(true) // has sample
		w.Len(1)     // symbols
		w.String("b")
		w.Len(padding / 2) // sequences: forged
		w.Len(1)           // seq len
		w.Uvarint(0)
		w.Len(1) // count
		for i := 0; i < padding; i++ {
			w.Byte(0)
		}
	})
	runtime.ReadMemStats(&before)
	_, err = ReadSnapshot(bytes.NewReader(paddedCount))
	runtime.ReadMemStats(&after)
	if err == nil || !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("padded sequence count: err = %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("padded sequence count: decoding allocated %d bytes", n)
	}

	// 2^20 symbol names, all empty, in 1 MiB: the count fits the bytes
	// left, and the second name is already a duplicate. Reading every
	// name before checking for one, and then presizing a table for all
	// of them, allocated over 160 MB.
	dupSymbols := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(1) // documents
		w.Len(1) // elements
		w.String("a")
		w.Bool(true)   // has sample
		w.Len(1 << 20) // symbols
		for i := 0; i < 1<<20; i++ {
			w.String("")
		}
	})
	runtime.ReadMemStats(&before)
	_, err = ReadSnapshot(bytes.NewReader(dupSymbols))
	runtime.ReadMemStats(&after)
	if err == nil || !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate symbol names: err = %v", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("duplicate symbol names: decoding allocated %d bytes", n)
	}

	// 2^15 distinct sequences, each at the per-count cap of 2^48, with
	// fingerprints that match: every count is in range, but their sum
	// wraps int64 to math.MinInt64, a negative occurrence total. The check
	// only keeps the total from wrapping: a total within the cap is still
	// far more occurrences than Set.Strings can expand.
	const bits, count = 15, maxSnapshotCount
	fp, err := sample.ImportSymbols([]string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]int32, 1<<bits)
	for j := range seqs {
		for k := 0; k < bits; k++ {
			seqs[j] = append(seqs[j], int32(j>>k&1))
		}
		fp.AddIDs(seqs[j], count)
	}
	sumOverflow := forge(func(w *snap.Writer) {
		w.Len(maxTextSamples)
		w.Len(maxAttValues)
		w.Len(1) // documents
		w.Len(1) // elements
		w.String("a")
		w.Bool(true) // has sample
		w.Len(2)     // symbols
		w.String("b")
		w.String("c")
		w.Len(len(seqs))
		for _, seq := range seqs {
			w.Len(len(seq))
			for _, id := range seq {
				w.Uvarint(uint64(id))
			}
			w.Len(count)
		}
		w.U64(fp.ShapeFingerprint())
		w.U64(fp.CountedFingerprint())
		w.Bool(false)
		w.Bool(false)
		w.Len(0) // texts
		w.Len(0) // atts
		w.Len(0) // roots
		w.Len(0) // dirty
		w.Len(0) // model cache
		w.Bool(false)
	})
	if x, err := ReadSnapshot(bytes.NewReader(sumOverflow)); err == nil || !errors.Is(err, snap.ErrCorrupt) {
		total := 0
		if err == nil {
			total = x.Sequences["a"].Total()
		}
		t.Fatalf("sequence counts summing past int64: err = %v, total %d", err, total)
	}
}

// TestSnapshotEmptyExtraction: an empty corpus round-trips too.
func TestSnapshotEmptyExtraction(t *testing.T) {
	x := NewExtraction()
	loaded := loadSnapshot(t, saveSnapshot(t, x))
	if got, want := snapshot(loaded), snapshot(x); got != want {
		t.Fatalf("empty round trip differs: %q vs %q", got, want)
	}
}

// TestSnapshotRefusesContextExtraction: the header records no context
// depth, so a context extraction's keys would load as element names.
func TestSnapshotRefusesContextExtraction(t *testing.T) {
	x := NewContextExtraction(1)
	if err := x.AddDocument(strings.NewReader(`<r><a/></r>`)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.WriteSnapshot(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("context extraction saved: err=%v, %d bytes", err, buf.Len())
	}
}
