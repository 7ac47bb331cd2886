// Package intern provides dense integer interning of element-name
// strings, plus the bitset backing interned adjacency relations. The
// automaton summaries (soa, crx) key their hot-path state by these dense
// IDs instead of by strings, which turns nested map churn into slice
// indexing and makes per-string accumulation allocation-free.
package intern

import "math/bits"

// Table assigns dense integer IDs (0, 1, 2, ...) to strings in the order
// they are first interned, and maps back from ID to string. The zero
// Table is not usable; call NewTable.
type Table struct {
	ids   map[string]int
	names []string
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{ids: map[string]int{}}
}

// Intern returns the ID of s, assigning the next free ID when s has not
// been seen before.
func (t *Table) Intern(s string) int {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := len(t.names)
	t.ids[s] = id
	t.names = append(t.names, s)
	return id
}

// InternBytes is Intern for a byte-slice key. The repeat path — a name
// seen before — is allocation-free: the compiler optimizes the
// map[string]int lookup keyed by string(b) into a no-copy probe, and the
// canonical string is materialized only on first sight.
func (t *Table) InternBytes(b []byte) int {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	s := string(b)
	id := len(t.names)
	t.ids[s] = id
	t.names = append(t.names, s)
	return id
}

// Lookup returns the ID of s without interning it.
func (t *Table) Lookup(s string) (int, bool) {
	id, ok := t.ids[s]
	return id, ok
}

// Name returns the string interned at id. It panics on an unassigned id.
func (t *Table) Name(id int) string { return t.names[id] }

// Len returns the number of interned strings; valid IDs are [0, Len).
func (t *Table) Len() int { return len(t.names) }

// Names returns a copy of the interned strings in dense-ID order:
// Names()[id] == Name(id). It is the export half of the serialization
// boundary — writing this slice and interning it back in order
// reproduces the table exactly, including every ID assignment.
func (t *Table) Names() []string {
	return append([]string(nil), t.names...)
}

// Remap is a compact, growable translation from one dense ID space into
// another: remapping corpus commits resolve a worker-local symbol ID to
// its ID in a shared corpus-level table exactly once, then every later
// occurrence is a slice index. The zero value is ready to use; unresolved
// entries read as -1.
//
// This is the merge half of the two-table interning design: workers
// intern into private Tables with no synchronization at all, and the
// single-threaded commit walks staged shard state in deterministic order,
// filling one Remap per (worker, target) pair. Strings are touched only
// on the first sight of a name corpus-wide; every repeat — the
// overwhelming majority on a real corpus — is remap[id].
type Remap struct {
	ids []int32
}

// Get returns the translation of old, or -1 when old is unresolved.
func (r *Remap) Get(old int32) int32 {
	if int(old) >= len(r.ids) {
		return -1
	}
	return r.ids[old]
}

// Set records the translation of old, growing the table as needed.
func (r *Remap) Set(old, new int32) {
	for len(r.ids) <= int(old) {
		r.ids = append(r.ids, -1)
	}
	r.ids[old] = new
}

// Reset forgets every translation, keeping the allocated storage.
func (r *Remap) Reset() {
	for i := range r.ids {
		r.ids[i] = -1
	}
}

// Bitset is a growable set of small non-negative integers.
type Bitset []uint64

// Set adds i to the set, growing the backing slice as needed.
func (b *Bitset) Set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << uint(i&63)
}

// Has reports whether i is in the set.
func (b Bitset) Has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<uint(i&63)) != 0
}

// Clear removes i from the set.
func (b Bitset) Clear(i int) {
	w := i >> 6
	if w < len(b) {
		b[w] &^= 1 << uint(i&63)
	}
}

// Empty reports whether the set has no members.
func (b Bitset) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the members in ascending order.
func (b Bitset) Members() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls f for every member in ascending order.
func (b Bitset) ForEach(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			f(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Until calls f on members in ascending order, stopping early when f
// returns false; it reports whether every call returned true.
func (b Bitset) Until(f func(i int) bool) bool {
	for w, word := range b {
		for word != 0 {
			if !f(w<<6 + bits.TrailingZeros64(word)) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}

// SubsetOf reports whether every member of b is in o.
func (b Bitset) SubsetOf(o Bitset) bool {
	for w, word := range b {
		var ow uint64
		if w < len(o) {
			ow = o[w]
		}
		if word&^ow != 0 {
			return false
		}
	}
	return true
}
