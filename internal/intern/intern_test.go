package intern

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTableAssignsDenseIDsInFirstSeenOrder(t *testing.T) {
	tab := NewTable()
	for i, s := range []string{"b", "a", "c", "a", "b", "d"} {
		id := tab.Intern(s)
		want := map[int]int{0: 0, 1: 1, 2: 2, 3: 1, 4: 0, 5: 3}[i]
		if id != want {
			t.Errorf("Intern #%d (%q) = %d, want %d", i, s, id, want)
		}
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
	for id, want := range []string{"b", "a", "c", "d"} {
		if got := tab.Name(id); got != want {
			t.Errorf("Name(%d) = %q, want %q", id, got, want)
		}
	}
	if id, ok := tab.Lookup("c"); !ok || id != 2 {
		t.Errorf("Lookup(c) = %d, %v", id, ok)
	}
	if _, ok := tab.Lookup("zz"); ok {
		t.Error("Lookup of unknown string succeeded")
	}
}

func TestTableCloneIsIndependent(t *testing.T) {
	tab := NewTable()
	tab.Intern("x")
	c := tab.Clone()
	c.Intern("y")
	if tab.Len() != 1 || c.Len() != 2 {
		t.Fatalf("lens = %d, %d", tab.Len(), c.Len())
	}
	if _, ok := tab.Lookup("y"); ok {
		t.Error("clone mutated original")
	}
}

func TestBitsetSetHasForEach(t *testing.T) {
	var b Bitset
	members := []int{0, 1, 63, 64, 65, 200, 1000}
	for _, m := range members {
		b.Set(m)
	}
	for _, m := range members {
		if !b.Has(m) {
			t.Errorf("Has(%d) = false", m)
		}
	}
	for _, m := range []int{2, 62, 66, 199, 201, 999, 1001, 5000} {
		if b.Has(m) {
			t.Errorf("Has(%d) = true", m)
		}
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if !sort.IntsAreSorted(got) {
		t.Errorf("ForEach not ascending: %v", got)
	}
	if len(got) != len(members) {
		t.Fatalf("ForEach visited %v, want %v", got, members)
	}
	for i := range got {
		if got[i] != members[i] {
			t.Fatalf("ForEach visited %v, want %v", got, members)
		}
	}
}

func TestBitsetRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b Bitset
	ref := map[int]bool{}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(512)
		b.Set(n)
		ref[n] = true
	}
	count := 0
	b.ForEach(func(i int) {
		if !ref[i] {
			t.Fatalf("ForEach yielded non-member %d", i)
		}
		count++
	})
	if count != len(ref) {
		t.Fatalf("ForEach count = %d, want %d", count, len(ref))
	}
	for i := 0; i < 512; i++ {
		if b.Has(i) != ref[i] {
			t.Fatalf("Has(%d) = %v, want %v", i, b.Has(i), ref[i])
		}
	}
}

func TestRemapZeroValueAndGrowth(t *testing.T) {
	var r Remap
	if got := r.Get(0); got != -1 {
		t.Errorf("Get on zero Remap = %d, want -1", got)
	}
	if got := r.Get(1000); got != -1 {
		t.Errorf("Get(1000) on zero Remap = %d, want -1", got)
	}
	r.Set(5, 42)
	if got := r.Get(5); got != 42 {
		t.Errorf("Get(5) = %d, want 42", got)
	}
	for _, old := range []int32{0, 1, 4, 6} {
		if got := r.Get(old); got != -1 {
			t.Errorf("Get(%d) = %d, want -1 (unresolved)", old, got)
		}
	}
	r.Set(2, 7)
	if got := r.Get(5); got != 42 {
		t.Errorf("Get(5) after unrelated Set = %d, want 42", got)
	}
	r.Reset()
	for _, old := range []int32{0, 2, 5, 100} {
		if got := r.Get(old); got != -1 {
			t.Errorf("Get(%d) after Reset = %d, want -1", old, got)
		}
	}
}

func TestTableResetKeepsStorageEmptiesContent(t *testing.T) {
	tab := NewTable()
	tab.Intern("a")
	tab.Intern("b")
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tab.Len())
	}
	if _, ok := tab.Lookup("a"); ok {
		t.Error("Lookup(a) still resolves after Reset")
	}
	if id := tab.Intern("c"); id != 0 {
		t.Errorf("first Intern after Reset = %d, want 0", id)
	}
}

// TestNamesExportImportRoundTrip pins the serialization boundary: a
// table rebuilt from its dense-ID export is indistinguishable from the
// original, including every ID assignment and the next-free-ID.
func TestNamesExportImportRoundTrip(t *testing.T) {
	tab := NewTable()
	for _, s := range []string{"beta", "alpha", "gamma", "alpha", "delta"} {
		tab.Intern(s)
	}
	names := tab.Names()
	want := []string{"beta", "alpha", "gamma", "delta"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
	// The export is a copy: mutating it must not touch the table.
	names[0] = "mutated"
	if tab.Name(0) != "beta" {
		t.Fatal("Names export aliases table storage")
	}
	got := NewTable()
	for _, s := range tab.Names() {
		got.Intern(s)
	}
	if !reflect.DeepEqual(got, tab) {
		t.Fatalf("imported table differs from original")
	}
	if id := got.Intern("epsilon"); id != 4 {
		t.Fatalf("next ID after import = %d, want 4", id)
	}
}
