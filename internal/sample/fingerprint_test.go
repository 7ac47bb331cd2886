package sample

import (
	"testing"

	"dtdinfer/internal/intern"
)

// TestFingerprintRemapStable builds the same logical multiset three ways —
// directly from strings, and via MergeMultiset from two worker-local ID
// spaces that assign IDs in different orders — and requires identical
// fingerprints: the hashes must depend on symbol strings, never on ID
// assignment.
func TestFingerprintRemapStable(t *testing.T) {
	seqs := [][]string{
		{"a", "b", "c"},
		{"b"},
		{"a", "b", "c"},
		{},
		{"c", "a"},
	}
	direct := FromStrings(seqs)

	// Worker 1 interns a,b,c in first-seen order; worker 2 in reverse.
	build := func(order []string, perm []int) *Set {
		tab := intern.NewTable()
		for _, sym := range order {
			tab.Intern(sym)
		}
		var ms Multiset
		for _, i := range perm {
			ids := make([]int32, len(seqs[i]))
			for j, sym := range seqs[i] {
				id, ok := tab.Lookup(sym)
				if !ok {
					t.Fatalf("symbol %q not pre-interned", sym)
				}
				ids[j] = int32(id)
			}
			ms.AddIDs(ids, 1)
		}
		s := New()
		var remap intern.Remap
		s.MergeMultiset(&ms, tab, &remap)
		return s
	}
	w1 := build([]string{"a", "b", "c"}, []int{0, 1, 2, 3, 4})
	w2 := build([]string{"c", "b", "a"}, []int{4, 3, 2, 1, 0})

	for _, o := range []*Set{w1, w2} {
		if o.ShapeFingerprint() != direct.ShapeFingerprint() {
			t.Errorf("shape fingerprint differs: %x vs %x", o.ShapeFingerprint(), direct.ShapeFingerprint())
		}
		if o.CountedFingerprint() != direct.CountedFingerprint() {
			t.Errorf("counted fingerprint differs: %x vs %x", o.CountedFingerprint(), direct.CountedFingerprint())
		}
	}
}

// TestFingerprintCountSensitivity: bumping the multiplicity of an
// already-seen sequence must leave the shape fingerprint unchanged and
// move the counted one; a new distinct sequence must move both.
func TestFingerprintCountSensitivity(t *testing.T) {
	s := FromStrings([][]string{{"a", "b"}, {"a"}})
	shape, counted := s.ShapeFingerprint(), s.CountedFingerprint()
	if shape == 0 || counted == 0 {
		t.Fatalf("zero fingerprints on non-empty set: shape=%x counted=%x", shape, counted)
	}

	s.Add([]string{"a", "b"}) // repeat shape
	if got := s.ShapeFingerprint(); got != shape {
		t.Errorf("shape fingerprint moved on multiplicity bump: %x -> %x", shape, got)
	}
	if got := s.CountedFingerprint(); got == counted {
		t.Errorf("counted fingerprint did not move on multiplicity bump: %x", counted)
	}

	shape, counted = s.ShapeFingerprint(), s.CountedFingerprint()
	s.Add([]string{"b"}) // new shape
	if got := s.ShapeFingerprint(); got == shape {
		t.Errorf("shape fingerprint did not move on new sequence: %x", shape)
	}
	if got := s.CountedFingerprint(); got == counted {
		t.Errorf("counted fingerprint did not move on new sequence: %x", counted)
	}
}

// TestFingerprintEmptySequence: an element observed only with empty
// content must fingerprint differently from one never observed (zero).
func TestFingerprintEmptySequence(t *testing.T) {
	s := FromStrings([][]string{{}})
	if s.ShapeFingerprint() == 0 {
		t.Error("empty-sequence sample has zero shape fingerprint")
	}
	if s.CountedFingerprint() == 0 {
		t.Error("empty-sequence sample has zero counted fingerprint")
	}
}

// TestFingerprintOrderWithinSequence: sequence hashes are order-sensitive
// within a sequence (ab != ba) while the multiset fingerprint is
// insensitive to the order sequences were added in.
func TestFingerprintOrderWithinSequence(t *testing.T) {
	ab := FromStrings([][]string{{"a", "b"}})
	ba := FromStrings([][]string{{"b", "a"}})
	if ab.ShapeFingerprint() == ba.ShapeFingerprint() {
		t.Error("ab and ba hash identically: sequence hash lost ordering")
	}

	fwd := FromStrings([][]string{{"a"}, {"b"}})
	rev := FromStrings([][]string{{"b"}, {"a"}})
	if fwd.ShapeFingerprint() != rev.ShapeFingerprint() {
		t.Error("shape fingerprint depends on sequence insertion order")
	}
	if fwd.CountedFingerprint() != rev.CountedFingerprint() {
		t.Error("counted fingerprint depends on sequence insertion order")
	}
}

// TestFingerprintMergePreserved: merging into a fresh set reproduces the
// same fingerprints as building the union directly.
func TestFingerprintMergePreserved(t *testing.T) {
	a := FromStrings([][]string{{"x"}, {"x", "y"}})
	b := FromStrings([][]string{{"y"}, {"x", "y"}})
	union := FromStrings([][]string{{"x"}, {"x", "y"}, {"y"}, {"x", "y"}})
	m := New()
	m.Merge(a)
	m.Merge(b)
	if m.ShapeFingerprint() != union.ShapeFingerprint() {
		t.Errorf("merged shape fingerprint %x != direct %x", m.ShapeFingerprint(), union.ShapeFingerprint())
	}
	if m.CountedFingerprint() != union.CountedFingerprint() {
		t.Errorf("merged counted fingerprint %x != direct %x", m.CountedFingerprint(), union.CountedFingerprint())
	}
}
