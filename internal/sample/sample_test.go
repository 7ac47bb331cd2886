package sample

import (
	"reflect"

	"dtdinfer/internal/intern"
	"sort"
	"strings"
	"testing"
)

func w(syms ...string) []string { return syms }

func TestAddDeduplicatesAndCounts(t *testing.T) {
	s := New()
	s.Add(w("a", "b"))
	s.Add(w("a", "b"))
	s.Add(w("b"))
	s.Add(nil)
	s.Add(w("a", "b"))
	if s.Total() != 5 {
		t.Errorf("Total = %d, want 5", s.Total())
	}
	if s.Unique() != 3 {
		t.Errorf("Unique = %d, want 3", s.Unique())
	}
	if s.Count(0) != 3 || s.Count(1) != 1 || s.Count(2) != 1 {
		t.Errorf("counts = %d %d %d", s.Count(0), s.Count(1), s.Count(2))
	}
	if got := strings.Join(s.SeqStrings(0), " "); got != "a b" {
		t.Errorf("first unique sequence = %q (first-seen order violated)", got)
	}
	if s.NumSymbols() != 2 {
		t.Errorf("NumSymbols = %d", s.NumSymbols())
	}
}

func TestAddCountZeroIsNoOp(t *testing.T) {
	s := New()
	s.AddCount(w("a"), 0)
	s.AddCount(w("a"), -3)
	if s.Total() != 0 || s.Unique() != 0 || s.NumSymbols() != 0 {
		t.Errorf("non-positive counts must not register anything: %v", s.Strings())
	}
}

func TestInternOrderFollowsFirstOccurrence(t *testing.T) {
	s := FromStrings([][]string{w("c", "a"), w("a", "b")})
	for id, want := range []string{"c", "a", "b"} {
		if s.Name(id) != want {
			t.Errorf("Name(%d) = %q, want %q", id, s.Name(id), want)
		}
	}
	if got := s.Symbols(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Symbols = %v", got)
	}
	if id, ok := s.Lookup("b"); !ok || id != 2 {
		t.Errorf("Lookup(b) = %d,%v", id, ok)
	}
	if _, ok := s.Lookup("z"); ok {
		t.Error("Lookup must not intern unseen symbols")
	}
}

func TestMergeAddsCountsAndPreservesOrder(t *testing.T) {
	a := FromStrings([][]string{w("x"), w("x", "y"), w("x")})
	b := FromStrings([][]string{w("y"), w("x", "y"), w("x", "y")})
	a.Merge(b)
	if a.Total() != 6 {
		t.Errorf("Total = %d, want 6", a.Total())
	}
	// a's uniques first in a's order, then b's new unique.
	wantSeqs := [][]string{w("x"), w("x", "y"), w("y")}
	wantCounts := []int{2, 3, 1}
	for i, want := range wantSeqs {
		if !reflect.DeepEqual(a.SeqStrings(i), want) || a.Count(i) != wantCounts[i] {
			t.Errorf("seq %d = %v x%d, want %v x%d",
				i, a.SeqStrings(i), a.Count(i), want, wantCounts[i])
		}
	}
	// Merge remaps b's IDs: "y" is 1 in b but must stay 1 in a ("x"=0).
	if a.Name(0) != "x" || a.Name(1) != "y" {
		t.Errorf("intern order corrupted: %v", a.Symbols())
	}
}

func TestMergeEqualsSequentialAdds(t *testing.T) {
	seqs := [][]string{w("a"), w("b", "a"), w("a"), nil, w("b", "a"), w("c")}
	whole := FromStrings(seqs)
	left := FromStrings(seqs[:3])
	left.Merge(FromStrings(seqs[3:]))
	if !reflect.DeepEqual(whole, left) {
		t.Errorf("Merge(a);Merge(b) differs from sequential adds:\n%v\nvs\n%v",
			whole.Strings(), left.Strings())
	}
}

func TestStringsExpandsMultiplicities(t *testing.T) {
	in := [][]string{w("a"), w("b"), w("a"), w("a")}
	out := FromStrings(in).Strings()
	if !multisetEqual(in, out) {
		t.Errorf("Strings() = %v is not the input multiset %v", out, in)
	}
	uniq := FromStrings(in).UniqueStrings()
	if len(uniq) != 2 || !reflect.DeepEqual(uniq[0], w("a")) || !reflect.DeepEqual(uniq[1], w("b")) {
		t.Errorf("UniqueStrings = %v", uniq)
	}
}

func TestForEachVisitsFirstSeenOrder(t *testing.T) {
	s := FromStrings([][]string{w("b"), w("a"), w("b")})
	var got []string
	s.ForEach(func(seq []int32, count int) {
		got = append(got, strings.Join(s.expand(seq), " ")+"x"+string(rune('0'+count)))
	})
	if !reflect.DeepEqual(got, []string{"bx2", "ax1"}) {
		t.Errorf("ForEach order = %v", got)
	}
}

// multisetEqual compares two samples as multisets of sequences.
func multisetEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	enc := func(sample [][]string) []string {
		out := make([]string, len(sample))
		for i, w := range sample {
			out[i] = strings.Join(w, "\x00")
		}
		sort.Strings(out)
		return out
	}
	return reflect.DeepEqual(enc(a), enc(b))
}

// FuzzRoundTrip checks that [][]string -> Set -> [][]string is the
// identity up to the ordering of duplicates, on arbitrary samples decoded
// from the fuzz input (0x00 separates symbols, 0x01 separates sequences).
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("a\x00b\x01a\x00b\x01c"))
	f.Add([]byte("\x01\x01"))
	f.Add([]byte{})
	f.Add([]byte("x\x01x\x01x"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in [][]string
		for _, seq := range strings.Split(string(data), "\x01") {
			var ws []string
			for _, sym := range strings.Split(seq, "\x00") {
				if sym != "" {
					ws = append(ws, sym)
				}
			}
			in = append(in, ws)
		}
		s := FromStrings(in)
		out := s.Strings()
		if !multisetEqual(in, out) {
			t.Fatalf("round trip lost data:\nin:  %q\nout: %q", in, out)
		}
		if s.Total() != len(in) {
			t.Fatalf("Total = %d, want %d", s.Total(), len(in))
		}
		seen := map[string]bool{}
		for _, w := range in {
			for _, sym := range w {
				seen[sym] = true
			}
		}
		if s.NumSymbols() != len(seen) {
			t.Fatalf("NumSymbols = %d, want %d", s.NumSymbols(), len(seen))
		}
	})
}

// TestMergeMultisetRemapPersistsAcrossCalls pins the commit contract the
// parallel ingestion path relies on: one remap per (worker, element)
// serves every multiset staged in that worker's symbol space, with
// symbols resolved through strings only on their first corpus-wide
// sight, and the result equals sequential adds.
func TestMergeMultisetRemapPersistsAcrossCalls(t *testing.T) {
	// Two "shards" staged in one worker-local symbol space.
	tab := intern.NewTable()
	ids := func(syms ...string) []int32 {
		out := make([]int32, len(syms))
		for i, s := range syms {
			out[i] = int32(tab.Intern(s))
		}
		return out
	}
	var shard1, shard2 Multiset
	shard1.AddIDs(ids("b", "a"), 1)
	shard2.AddIDs(ids("b", "a"), 1)
	shard2.AddIDs(ids("c", "a", "c"), 2)

	corpus := New()
	var remap intern.Remap
	corpus.MergeMultiset(&shard1, tab, &remap)
	corpus.MergeMultiset(&shard2, tab, &remap)

	want := FromStrings([][]string{
		{"b", "a"}, {"b", "a"}, {"c", "a", "c"}, {"c", "a", "c"},
	})
	if !reflect.DeepEqual(corpus, want) {
		t.Errorf("merged corpus = %v, want %v", corpus.Strings(), want.Strings())
	}
	// The remap now covers every symbol the worker staged; a fresh
	// multiset in the same space must merge without new resolutions.
	for old := int32(0); int(old) < tab.Len(); old++ {
		if remap.Get(old) < 0 {
			t.Errorf("symbol %d (%s) unresolved after merges", old, tab.Name(int(old)))
		}
	}
}

// TestImportSymbolsRebuildRoundTrip pins the Set serialization
// boundary: exporting the symbol list plus the unique sequences with
// multiplicities and rebuilding through ImportSymbols + AddIDsChecked
// reproduces the original Set exactly — same ID assignments, same
// first-seen sequence order, same fingerprints (recomputed from content,
// so they double as a corruption check for snapshot decoders).
func TestImportSymbolsRebuildRoundTrip(t *testing.T) {
	orig := FromStrings([][]string{
		{"b", "a"}, {"b", "a"}, {"c"}, {}, {"a", "c", "a"},
	})
	rebuilt, err := ImportSymbols(orig.SymbolList())
	if err != nil {
		t.Fatalf("ImportSymbols: %v", err)
	}
	for i := 0; i < orig.Unique(); i++ {
		if err := rebuilt.AddIDsChecked(orig.Seq(i), orig.Count(i)); err != nil {
			t.Fatalf("AddIDsChecked(seq %d): %v", i, err)
		}
	}
	if !reflect.DeepEqual(rebuilt, orig) {
		t.Fatalf("rebuilt Set differs:\n got %v\nwant %v", rebuilt.Strings(), orig.Strings())
	}
	if rebuilt.ShapeFingerprint() != orig.ShapeFingerprint() ||
		rebuilt.CountedFingerprint() != orig.CountedFingerprint() {
		t.Fatal("rebuilt fingerprints differ from original")
	}
}

func TestImportSymbolsRejectsDuplicates(t *testing.T) {
	if _, err := ImportSymbols([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate symbol accepted")
	}
}

func TestAddIDsCheckedRejectsBadInput(t *testing.T) {
	s, err := ImportSymbols([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddIDsChecked([]int32{0, 2}, 1); err == nil {
		t.Fatal("out-of-range ID accepted")
	}
	if err := s.AddIDsChecked([]int32{-1}, 1); err == nil {
		t.Fatal("negative ID accepted")
	}
	if err := s.AddIDsChecked([]int32{0}, 0); err == nil {
		t.Fatal("zero multiplicity accepted")
	}
	// Rejections must leave the Set untouched.
	if s.Total() != 0 || s.Unique() != 0 {
		t.Fatalf("rejected adds mutated the set: total=%d unique=%d", s.Total(), s.Unique())
	}
	if err := s.AddIDsChecked([]int32{1, 0}, 3); err != nil {
		t.Fatalf("valid add rejected: %v", err)
	}
	if s.Total() != 3 || s.Unique() != 1 {
		t.Fatalf("after valid add: total=%d unique=%d", s.Total(), s.Unique())
	}
}
