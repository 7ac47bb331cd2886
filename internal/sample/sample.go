// Package sample provides the counted, symbol-interned sample
// representation that every inference engine consumes: a multiset of
// children sequences stored as unique interned-ID sequences with
// multiplicities. Real-world corpora are dominated by repeated sequences,
// so deduplicating at ingestion makes the per-element sample size
// proportional to the number of *distinct* sequences, and interning once
// at the corpus edge removes the per-algorithm cost of re-interning
// strings on every inference call. Multiplicities keep the representation
// lossless: occurrence-count-sensitive consumers (CRX quantifiers, SOA
// edge supports, numeric predicates) see exactly the statistics of the
// expanded string multiset.
package sample

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"dtdinfer/internal/intern"
)

// Multiset is the table-free core of a counted sample: unique ID
// sequences in first-seen order with multiplicities. It carries no symbol
// table of its own — IDs are interpreted against whatever space the owner
// chose — which is what lets a parallel ingestion worker stage shard
// observations entirely in its private symbol space and lets the commit
// fold them into a Set with one ID translation per unique sequence. The
// zero value is ready to use.
//
// The distinct sequences live back to back in one ID arena with an end
// table, so a multiset of any size is a handful of pointer-free slices
// the garbage collector never scans. Every sequence added is staged at
// the arena tail and looked up in a seeded hash index over its IDs; a
// repeat is truncated back off the arena, so the repeat path allocates
// nothing. A multiset holds at most 2^31 IDs.
type Multiset struct {
	// arena holds every distinct sequence's IDs back to back, in the order
	// first observed: sequence i is arena[ends[i-1]:ends[i]], with
	// ends[-1] read as 0.
	arena []int32
	ends  []int32
	// counts[i] is the multiplicity of sequence i; always >= 1.
	counts []int
	// index maps a sequence's key (keyStep folded over its IDs) to the latest
	// distinct sequence with that key; next[i] is the sequence before i
	// with the same key, or -1. Distinct sequences share a key only on a
	// 64-bit hash collision, so the chains are almost always one long.
	index map[uint64]int32
	next  []int32
	// total is the sum of counts: the size of the expanded multiset.
	total int
	// hashes[i] is the content hash of sequence i — a chained hash over
	// the *strings* of its symbols, so two Sets holding the same logical
	// multiset agree on it regardless of how their ID spaces were
	// assigned. Bare Multisets staged in a worker's private space carry
	// zero hashes (their fingerprints are never read); the hash is
	// supplied by the owning Set, which knows the symbol strings.
	hashes []uint64
	// shapeFp is the XOR of hashes — an order-insensitive fingerprint of
	// the *distinct* sequence set, unchanged when a merge only bumps
	// multiplicities of already-seen shapes.
	shapeFp uint64
	// countFp is the sum of hashes[i]*counts[i] (mod 2^64) — shapeFp's
	// count-sensitive sibling, changed by any multiplicity bump.
	countFp uint64
}

// Set is a counted multiset of symbol sequences: an intern table over the
// element names plus the counted Multiset of their sequences. The zero
// value is not usable; call New or FromStrings. A Set is not safe for
// concurrent mutation; concurrent reads are fine once building has
// finished.
type Set struct {
	tab *intern.Table
	// symHash[id] is the string hash of the symbol interned at id, grown
	// in lockstep with tab so sequence hashes are computed from IDs
	// without touching strings on the hot path.
	symHash []uint64
	Multiset
}

// New returns an empty Set.
func New() *Set {
	return &Set{tab: intern.NewTable(), Multiset: Multiset{index: map[uint64]int32{}}}
}

// ImportSymbols builds an empty Set whose symbol table is pre-seeded
// with the given names in dense-ID order — the import half of the
// serialization boundary. Rebuilding a snapshotted Set is ImportSymbols
// with the exported SymbolList, then AddIDsChecked per unique sequence:
// because the symbol hashes are recomputed from the imported strings and
// the sequence hashes from those, the rebuilt fingerprints are derived
// entirely from content, so a decoder can revalidate them against the
// stored ones to detect corrupt or tampered sequence data. A duplicate
// name (impossible in a real export) is rejected.
func ImportSymbols(symbols []string) (*Set, error) {
	s := New()
	for _, sym := range symbols {
		if err := s.ImportSymbol(sym); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ImportSymbol is ImportSymbols one name at a time, on a Set from New
// that has no sequences yet: the name takes the next dense ID. A decoder
// reading an untrusted symbol list calls it per name, so a duplicate is
// rejected as soon as it is read, before the rest of the list is.
func (s *Set) ImportSymbol(name string) error {
	if _, dup := s.tab.Lookup(name); dup {
		return fmt.Errorf("sample: duplicate symbol %q in import", name)
	}
	s.internID(name)
	return nil
}

// FromStrings builds a Set from a verbatim sample, interning symbols in
// first-seen order and counting duplicate sequences.
func FromStrings(sample [][]string) *Set {
	s := New()
	for _, w := range sample {
		s.Add(w)
	}
	return s
}

// Add folds one sequence into the multiset.
func (s *Set) Add(w []string) { s.AddCount(w, 1) }

// AddCount folds n occurrences of one sequence into the multiset. n <= 0
// is a no-op. The hot path — a sequence seen before — is allocation-free:
// symbols are interned straight into a candidate at the arena tail, which
// is kept only on first sight.
func (s *Set) AddCount(w []string, n int) {
	if n <= 0 {
		return
	}
	start := s.stage(len(w))
	h, k := uint64(seqSeed), keySeed
	for _, sym := range w {
		id := s.internID(sym)
		s.arena = append(s.arena, id)
		h = (h ^ s.symHash[id]) * fnvPrime64
		k = keyStep(k, id)
	}
	s.addStaged(k, start, n, mix64(h))
}

// Intern returns the ID of sym in s's symbol space, assigning the next
// free ID on first sight. It lets decoders that stage sequences in a
// private ID space translate into the Set's space once per distinct
// symbol, then commit with AddIDs.
func (s *Set) Intern(sym string) int { return int(s.internID(sym)) }

// internID interns sym and keeps symHash in lockstep with the table, so
// every ID a caller can hold has its string hash resolved exactly once.
func (s *Set) internID(sym string) int32 {
	id := s.tab.Intern(sym)
	if id == len(s.symHash) {
		s.symHash = append(s.symHash, hashSym(sym))
	}
	return int32(id)
}

// AddIDs folds n occurrences of a sequence already expressed in the
// multiset's ID space. n <= 0 is a no-op. The repeat path is
// allocation-free; ids is copied into the arena, so callers may reuse
// it. A bare Multiset has no symbol strings, so its sequences hash as
// zero and its fingerprints are meaningless — Set.AddIDs shadows this
// with the hash-maintaining version.
func (m *Multiset) AddIDs(ids []int32, n int) {
	if n <= 0 {
		return
	}
	start := m.stage(len(ids))
	m.arena = append(m.arena, ids...)
	k := keySeed
	for _, id := range ids {
		k = keyStep(k, id)
	}
	m.addStaged(k, start, n, 0)
}

// AddIDs folds n occurrences of a sequence expressed in the Set's ID
// space, maintaining the content fingerprints. Every ID must have come
// from Intern on this Set.
func (s *Set) AddIDs(ids []int32, n int) {
	if n <= 0 {
		return
	}
	start := s.stage(len(ids))
	s.arena = append(s.arena, ids...)
	h, k := uint64(seqSeed), keySeed
	for _, id := range ids {
		h = (h ^ s.symHash[id]) * fnvPrime64
		k = keyStep(k, id)
	}
	s.addStaged(k, start, n, mix64(h))
}

// AddIDsChecked is AddIDs for untrusted input: every ID must be in the
// Set's assigned range, n must be positive and the arena must have room
// for the sequence within its 2^31 IDs, otherwise the sequence is
// rejected with an error and the Set is left unchanged. Snapshot
// decoders use it so a corrupt ID stream surfaces as an error instead of
// a panic on the unchecked hot path.
func (s *Set) AddIDsChecked(ids []int32, n int) error {
	if n < 1 {
		return fmt.Errorf("sample: sequence multiplicity %d is not positive", n)
	}
	if len(ids) > math.MaxInt32-len(s.arena) {
		return fmt.Errorf("sample: %d more IDs would take the multiset past 2^31", len(ids))
	}
	for _, id := range ids {
		if id < 0 || int(id) >= len(s.symHash) {
			return fmt.Errorf("sample: symbol ID %d out of range [0, %d)", id, len(s.symHash))
		}
	}
	s.AddIDs(ids, n)
	return nil
}

// addStaged folds n occurrences of the candidate sequence staged at
// arena[start:]. Its index key is keyStep folded over its IDs from
// keySeed, which the caller computes in the same loop as its content
// hash h; taking the key as an argument is also what lets a test force
// distinct sequences onto one key — no real 64-bit collision can be
// built to do that. A new sequence stays where it is; a repeat is
// truncated back, so the arena keeps no trace of it and two multisets
// holding the same sequences compare equal under reflect.DeepEqual
// regardless of insertion history.
func (m *Multiset) addStaged(key uint64, start, n int, h uint64) {
	i, head := m.find(key, m.arena[start:])
	if i >= 0 {
		m.arena = m.arena[:start]
		m.bump(i, n)
		return
	}
	m.insert(key, head, n, h)
}

// stage makes room for a candidate of k IDs at the arena tail and
// returns where it starts. The arena at least doubles when it grows:
// append's gentler growth past 256 elements would copy a large arena
// many more times while a sample is read.
func (m *Multiset) stage(k int) int {
	if cap(m.arena)-len(m.arena) < k {
		m.arena = slices.Grow(m.arena, max(k, len(m.arena)))
	}
	return len(m.arena)
}

// find returns the distinct sequence equal to seq among those under
// key, or -1, and the head of key's chain, or -1 when key is unused.
func (m *Multiset) find(key uint64, seq []int32) (i, head int32) {
	head, ok := m.index[key]
	if !ok {
		return -1, -1
	}
	for i = head; i >= 0; i = m.next[i] {
		if slices.Equal(m.Seq(int(i)), seq) {
			return i, head
		}
	}
	return -1, head
}

// bump adds n occurrences of distinct sequence i.
func (m *Multiset) bump(i int32, n int) {
	m.counts[i] += n
	m.countFp += m.hashes[i] * uint64(n)
	m.total += n
}

// insert registers the IDs after the last distinct sequence, up to the
// arena's end, as a new distinct sequence with n occurrences, chained in
// front of head under key.
func (m *Multiset) insert(key uint64, head int32, n int, h uint64) {
	if len(m.arena) > math.MaxInt32 {
		panic("sample: multiset holds more than 2^31 symbol IDs")
	}
	if m.index == nil {
		m.index = map[uint64]int32{}
	}
	m.index[key] = int32(len(m.ends))
	m.next = append(m.next, head)
	m.ends = append(m.ends, int32(len(m.arena)))
	m.counts = append(m.counts, n)
	m.hashes = append(m.hashes, h)
	m.shapeFp ^= h
	m.countFp += h * uint64(n)
	m.total += n
}

// keySeed seeds the index keys afresh in every process, so no corpus can
// be built to pile its distinct sequences onto one key.
var keySeed = rand.Uint64()

// keyStep folds one ID into an index key: the wyhash mixing step, a
// 64×64→128-bit multiply folded to 64 bits.
func keyStep(k uint64, id int32) uint64 {
	hi, lo := bits.Mul64(k^uint64(uint32(id)), 0xe7037ed1a0b428db)
	return hi ^ lo
}

// Fingerprint hashing. Symbols hash by their strings (FNV-1a), sequences
// by chaining symbol hashes through the FNV prime and finalizing with a
// splitmix64-style mixer — so the hash of a sequence depends only on the
// symbol strings and their order, never on the intern-table ID
// assignment. That is what makes fingerprints remap-stable: a multiset
// staged in a worker's private symbol space and merged through a remap
// fingerprints identically to one built directly.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	// seqSeed keeps the empty sequence's hash away from zero so an
	// element observed only with empty content still fingerprints
	// distinctly from an element never observed.
	seqSeed = 0x9e3779b97f4a7c15
)

func hashSym(sym string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(sym); i++ {
		h = (h ^ uint64(sym[i])) * fnvPrime64
	}
	return mix64(h)
}

// HashString exposes the symbol content hash (FNV-1a finalized with
// Mix64) so sibling fingerprints — the attribute-statistics fingerprint
// in the dtd layer — hash strings the same way the sequence
// fingerprints do, keeping every fingerprint in the system remap- and
// process-stable for the same content.
func HashString(s string) uint64 { return hashSym(s) }

// Mix64 exposes the splitmix64 finalizer for callers combining several
// content hashes into one derived fingerprint.
func Mix64(x uint64) uint64 { return mix64(x) }

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche that
// spreads chained-FNV outputs across the whole 64-bit space, so XOR and
// summation over many sequence hashes do not concentrate collisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShapeFingerprint is an order-insensitive hash of the distinct sequence
// set: merges that only bump multiplicities of already-seen shapes leave
// it unchanged. Meaningful only on a Set (or a multiset whose hashes
// were maintained by one).
func (m *Multiset) ShapeFingerprint() uint64 { return m.shapeFp }

// CountedFingerprint is ShapeFingerprint's count-sensitive sibling: any
// multiplicity change moves it. It is incremental (additive mod 2^64) so
// a bump costs one multiply-add.
func (m *Multiset) CountedFingerprint() uint64 { return m.countFp }

// MergeMultiset folds a counted multiset expressed in a foreign symbol
// space into s: each unique sequence is translated ID-by-ID through
// remap, consulting names (the foreign space's table) only on the first
// sight of a symbol, and folded in with its multiplicity. remap persists
// across calls — a parallel worker's commit reuses one remap per element
// across every shard it staged — and the repeat path allocates nothing.
// Walking o's sequences in first-seen order makes the symbols intern into
// s in first-occurrence order, so a sharded, committed-in-order ingestion
// builds a Set byte-identical to sequential ingestion.
func (s *Set) MergeMultiset(o *Multiset, names *intern.Table, remap *intern.Remap) {
	s.mergeMultiset(o, func(old int32) string { return names.Name(int(old)) }, remap)
}

// MergeMultisetNames is MergeMultiset against a dense-ID name snapshot
// (names[id] is the foreign symbol interned at id) instead of a live
// intern.Table. It is the counted-union entry point for pipelined
// commits, where the staging worker's table keeps growing concurrently
// and the committer must resolve symbols from an immutable snapshot
// captured when the stage was sealed.
func (s *Set) MergeMultisetNames(o *Multiset, names []string, remap *intern.Remap) {
	s.mergeMultiset(o, func(old int32) string { return names[old] }, remap)
}

func (s *Set) mergeMultiset(o *Multiset, name func(int32) string, remap *intern.Remap) {
	for i, n := 0, o.Unique(); i < n; i++ {
		seq := o.Seq(i)
		start := s.stage(len(seq))
		h, k := uint64(seqSeed), keySeed
		for _, old := range seq {
			id := remap.Get(old)
			if id < 0 {
				id = s.internID(name(old))
				remap.Set(old, id)
			}
			s.arena = append(s.arena, id)
			h = (h ^ s.symHash[id]) * fnvPrime64
			k = keyStep(k, id)
		}
		s.addStaged(k, start, o.counts[i], mix64(h))
	}
}

// Merge folds another Set into s: multiplicities of shared sequences add,
// new sequences append in o's first-seen order. Merge(a); Merge(b) is
// equivalent to adding a's and b's expanded strings in order, so counted
// shard commits stay byte-identical to sequential ingestion. Symbols of o
// that occur in no sequence are not carried over.
func (s *Set) Merge(o *Set) {
	if o == nil {
		return
	}
	var remap intern.Remap
	s.MergeMultiset(&o.Multiset, o.tab, &remap)
}

// Clone returns an independent deep copy.
func (s *Set) Clone() *Set {
	c := New()
	c.Merge(s)
	return c
}

// Reset empties the multiset while keeping its allocated storage (the
// arena, the index map, the tables), so a staging multiset can be
// recycled through a free list without re-growing on every reuse. The
// arena is overwritten by the next sequences added, so a Seq or ForEach
// slice must not be held across a Reset. The one multiset that is reset,
// a parallel worker's staged shard, is read only by MergeMultiset, which
// copies every ID it keeps.
func (m *Multiset) Reset() {
	m.arena = m.arena[:0]
	m.ends = m.ends[:0]
	m.counts = m.counts[:0]
	m.next = m.next[:0]
	m.hashes = m.hashes[:0]
	clear(m.index)
	m.total = 0
	m.shapeFp = 0
	m.countFp = 0
}

// Reserve makes room for n more distinct sequences, so a decoder told the
// count up front fills the multiset without regrowing its index and
// slices. Callers reading untrusted input should cap n.
func (m *Multiset) Reserve(n int) {
	if n <= 0 {
		return
	}
	if len(m.index) == 0 {
		m.index = make(map[uint64]int32, n)
	}
	m.ends = slices.Grow(m.ends, n)
	m.counts = slices.Grow(m.counts, n)
	m.next = slices.Grow(m.next, n)
	m.hashes = slices.Grow(m.hashes, n)
}

// Total returns the size of the expanded multiset (sequences counted with
// multiplicity).
func (m *Multiset) Total() int { return m.total }

// Unique returns the number of distinct sequences.
func (m *Multiset) Unique() int { return len(m.ends) }

// NumSymbols returns the size of the interned ID space; valid symbol IDs
// are [0, NumSymbols).
func (s *Set) NumSymbols() int { return s.tab.Len() }

// Name returns the symbol interned at id. It panics on an unassigned id.
func (s *Set) Name(id int) string { return s.tab.Name(id) }

// Lookup returns the ID of a symbol without interning it. Because the
// table only ever interns symbols that occur in added sequences, a
// successful lookup means the symbol occurs in the sample.
func (s *Set) Lookup(sym string) (int, bool) { return s.tab.Lookup(sym) }

// SymbolList returns the symbols in dense-ID order (SymbolList()[id] ==
// Name(id)) — the export half of the serialization boundary, consumed
// by ImportSymbols to rebuild the Set with identical ID assignments.
func (s *Set) SymbolList() []string { return s.tab.Names() }

// Symbols returns the sorted alphabet of the sample.
func (s *Set) Symbols() []string {
	out := make([]string, s.tab.Len())
	for id := range out {
		out[id] = s.tab.Name(id)
	}
	sort.Strings(out)
	return out
}

// Seq returns the i-th unique sequence as interned IDs. The slice is
// shared with the multiset's arena and must not be mutated; its capacity
// ends with the sequence, so appending to it copies.
func (m *Multiset) Seq(i int) []int32 {
	a, b := 0, int(m.ends[i])
	if i > 0 {
		a = int(m.ends[i-1])
	}
	return m.arena[a:b:b]
}

// Count returns the multiplicity of the i-th unique sequence.
func (m *Multiset) Count(i int) int { return m.counts[i] }

// ForEach calls f once per unique sequence, in first-seen order, with its
// multiplicity. The seq slice is shared and must not be mutated; like
// Seq's, its capacity ends with the sequence.
func (m *Multiset) ForEach(f func(seq []int32, count int)) {
	a := 0
	for i, b := range m.ends {
		f(m.arena[a:b:b], m.counts[i])
		a = int(b)
	}
}

// SeqStrings returns the i-th unique sequence as symbol strings.
func (s *Set) SeqStrings(i int) []string {
	return s.expand(s.Seq(i))
}

func (s *Set) expand(seq []int32) []string {
	w := make([]string, len(seq))
	for j, id := range seq {
		w[j] = s.tab.Name(int(id))
	}
	return w
}

// Strings expands the multiset back to a verbatim sample: each unique
// sequence appears count times, consecutively, in first-seen order. The
// expansion is lossless up to the ordering of duplicates — it contains
// exactly the same sequences with the same multiplicities as the strings
// that were added.
func (s *Set) Strings() [][]string {
	out := make([][]string, 0, s.total)
	s.ForEach(func(seq []int32, count int) {
		w := s.expand(seq)
		for n := 0; n < count; n++ {
			out = append(out, w)
		}
	})
	return out
}

// UniqueStrings expands only the distinct sequences, in first-seen order.
func (s *Set) UniqueStrings() [][]string {
	out := make([][]string, 0, s.Unique())
	s.ForEach(func(seq []int32, _ int) { out = append(out, s.expand(seq)) })
	return out
}
