package sample

import (
	"slices"
	"testing"

	"dtdinfer/internal/intern"
)

// The oracle is the map-and-slices Multiset the arena representation
// replaced, kept verbatim apart from its names: every distinct sequence
// is its own []int32 and the index is a string map keyed by the IDs'
// little-endian bytes. FuzzMultisetOracle holds Multiset and Set to it.

type oracleMultiset struct {
	// seqs holds each distinct sequence once, as interned IDs, in the
	// order first observed.
	seqs [][]int32
	// counts[i] is the multiplicity of seqs[i]; always >= 1.
	counts []int
	// index maps an encoded sequence to its position in seqs.
	index map[string]int
	// total is the sum of counts: the size of the expanded multiset.
	total int
	// keyBuf is the reusable encoding buffer for index lookups.
	keyBuf []byte
	// hashes[i] is the content hash of seqs[i] — a chained hash over the
	// *strings* of its symbols, so two Sets holding the same logical
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

// oracleSet carries the Set methods that feed the oracle multiset.
type oracleSet struct {
	tab     *intern.Table
	symHash []uint64
	oracleMultiset
}

func newOracleSet() *oracleSet {
	return &oracleSet{tab: intern.NewTable(), oracleMultiset: oracleMultiset{index: map[string]int{}}}
}

func (s *oracleSet) AddCount(w []string, n int) {
	if n <= 0 {
		return
	}
	h := uint64(seqSeed)
	for _, sym := range w {
		id := s.internID(sym)
		s.keyBuf = appendID(s.keyBuf, id)
		h = (h ^ s.symHash[id]) * fnvPrime64
	}
	s.bump(nil, n, mix64(h))
}

func (s *oracleSet) internID(sym string) int32 {
	id := s.tab.Intern(sym)
	if id == len(s.symHash) {
		s.symHash = append(s.symHash, hashSym(sym))
	}
	return int32(id)
}

func (m *oracleMultiset) AddIDs(ids []int32, n int) {
	if n <= 0 {
		return
	}
	for _, id := range ids {
		m.keyBuf = appendID(m.keyBuf, id)
	}
	// Passing nil lets bump decode a fresh copy from the key only when the
	// sequence is new, so the caller keeps ownership of ids and the repeat
	// path stays allocation-free.
	m.bump(nil, n, 0)
}

func (s *oracleSet) AddIDs(ids []int32, n int) {
	if n <= 0 {
		return
	}
	h := uint64(seqSeed)
	for _, id := range ids {
		s.keyBuf = appendID(s.keyBuf, id)
		h = (h ^ s.symHash[id]) * fnvPrime64
	}
	s.bump(nil, n, mix64(h))
}

func (m *oracleMultiset) bump(ids []int32, n int, h uint64) {
	if m.index == nil {
		m.index = map[string]int{}
	}
	if i, ok := m.index[string(m.keyBuf)]; ok {
		m.counts[i] += n
		m.countFp += m.hashes[i] * uint64(n)
	} else {
		if ids == nil {
			ids = decodeKey(m.keyBuf)
		}
		m.index[string(m.keyBuf)] = len(m.seqs)
		m.seqs = append(m.seqs, ids)
		m.counts = append(m.counts, n)
		m.hashes = append(m.hashes, h)
		m.shapeFp ^= h
		m.countFp += h * uint64(n)
	}
	m.total += n
	m.keyBuf = m.keyBuf[:0]
}

func appendID(buf []byte, id int32) []byte {
	return append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
}

func decodeKey(key []byte) []int32 {
	ids := make([]int32, len(key)/4)
	for i := range ids {
		k := key[i*4:]
		ids[i] = int32(k[0]) | int32(k[1])<<8 | int32(k[2])<<16 | int32(k[3])<<24
	}
	return ids
}

func (s *oracleSet) MergeMultiset(o *oracleMultiset, names *intern.Table, remap *intern.Remap) {
	s.mergeMultiset(o, func(old int32) string { return names.Name(int(old)) }, remap)
}

func (s *oracleSet) mergeMultiset(o *oracleMultiset, name func(int32) string, remap *intern.Remap) {
	for i, seq := range o.seqs {
		h := uint64(seqSeed)
		for _, old := range seq {
			id := remap.Get(old)
			if id < 0 {
				id = s.internID(name(old))
				remap.Set(old, id)
			}
			s.keyBuf = appendID(s.keyBuf, id)
			h = (h ^ s.symHash[id]) * fnvPrime64
		}
		s.bump(nil, o.counts[i], mix64(h))
	}
}

func (m *oracleMultiset) Reset() {
	for i := range m.seqs {
		m.seqs[i] = nil
	}
	m.seqs = m.seqs[:0]
	m.counts = m.counts[:0]
	m.hashes = m.hashes[:0]
	clear(m.index)
	m.total = 0
	m.shapeFp = 0
	m.countFp = 0
	m.keyBuf = m.keyBuf[:0]
}

// sameMultiset fails t unless m and o hold the same distinct sequences in
// the same order, with the same counts, total and fingerprints.
func sameMultiset(t *testing.T, step int, m *Multiset, o *oracleMultiset) {
	t.Helper()
	if m.Unique() != len(o.seqs) || m.Total() != o.total {
		t.Fatalf("step %d: unique %d total %d, oracle %d and %d", step, m.Unique(), m.Total(), len(o.seqs), o.total)
	}
	for i, want := range o.seqs {
		if got := m.Seq(i); !slices.Equal(got, want) || m.Count(i) != o.counts[i] {
			t.Fatalf("step %d: sequence %d is %v x%d, oracle %v x%d", step, i, got, m.Count(i), want, o.counts[i])
		}
	}
	i := 0
	m.ForEach(func(seq []int32, count int) {
		if !slices.Equal(seq, o.seqs[i]) || count != o.counts[i] {
			t.Fatalf("step %d: ForEach sequence %d is %v x%d, oracle %v x%d", step, i, seq, count, o.seqs[i], o.counts[i])
		}
		i++
	})
	if m.ShapeFingerprint() != o.shapeFp || m.CountedFingerprint() != o.countFp {
		t.Fatalf("step %d: fingerprints %x/%x, oracle %x/%x", step, m.ShapeFingerprint(), m.CountedFingerprint(), o.shapeFp, o.countFp)
	}
}

// FuzzMultisetOracle runs one script, derived from the input, on a Set
// and a bare staging Multiset and on their oracles: AddCount and AddIDs
// on the Set, AddIDs and Reset on the staging multiset (which interns in
// a worker-local table of its own), and MergeMultiset of the staging
// multiset into the Set through one persistent remap. After every step
// both pairs must agree on every sequence, count, total and fingerprint.
func FuzzMultisetOracle(f *testing.F) {
	f.Add([]byte{0, 0x12, 1, 0x21, 2, 0x33, 3, 0, 4, 3})
	f.Add([]byte{2, 0x45, 2, 0x45, 2, 0x10, 3, 0, 4, 0, 2, 0x10, 3, 0, 0, 0x45})
	f.Add([]byte{0, 0xff, 0, 0xff, 1, 0x80, 2, 0x7f, 3, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		syms := []string{"a", "b", "c", "d", "e"}
		s, ref := New(), newOracleSet()
		var w Multiset
		ow := oracleMultiset{index: map[string]int{}}
		names := intern.NewTable()
		var remap, oremap intern.Remap
		for step := 0; step+1 < len(script); step += 2 {
			op, arg := script[step], script[step+1]
			// arg's low three bits give the sequence length, its next two
			// the multiplicity (0 is a no-op), the rest the first symbol;
			// later symbols step through the alphabet by the op byte.
			n := int(arg >> 3 & 3)
			seq := make([]string, arg&7)
			for i := range seq {
				seq[i] = syms[(int(arg>>5)+i*int(op>>3))%len(syms)]
			}
			switch op % 5 {
			case 0:
				s.AddCount(seq, n)
				ref.AddCount(seq, n)
			case 1:
				ids := make([]int32, 0, len(seq))
				for _, sym := range seq {
					if id, ok := s.Lookup(sym); ok {
						ids = append(ids, int32(id))
					}
				}
				s.AddIDs(ids, n)
				ref.AddIDs(ids, n)
			case 2:
				ids := make([]int32, len(seq))
				for i, sym := range seq {
					ids[i] = int32(names.Intern(sym))
				}
				w.AddIDs(ids, n)
				ow.AddIDs(ids, n)
			case 3:
				s.MergeMultiset(&w, names, &remap)
				ref.MergeMultiset(&ow, names, &oremap)
			case 4:
				w.Reset()
				ow.Reset()
			}
			sameMultiset(t, step/2, &s.Multiset, &ref.oracleMultiset)
			sameMultiset(t, step/2, &w, &ow)
		}
	})
}

// TestIndexKeyCollisionChains forces distinct sequences onto one index
// key, so the next chain is walked: each must still be found again,
// counted apart and kept in first-seen order.
func TestIndexKeyCollisionChains(t *testing.T) {
	var m Multiset
	o := oracleMultiset{index: map[string]int{}}
	put := func(ids ...int32) {
		start := m.stage(len(ids))
		m.arena = append(m.arena, ids...)
		m.addStaged(42, start, 1, 0)
		o.AddIDs(ids, 1)
	}
	put(1, 2)
	put(2, 1)
	put()
	put(1, 2, 3)
	put(2, 1)
	put()
	put(1, 2)
	put(1, 2)
	sameMultiset(t, 0, &m, &o)
	if m.Unique() != 4 || len(m.index) != 1 {
		t.Fatalf("%d distinct sequences under %d keys, want 4 under 1", m.Unique(), len(m.index))
	}
	chain := 0
	for i := m.index[42]; i >= 0; i = m.next[i] {
		chain++
	}
	if chain != 4 {
		t.Fatalf("chain under the shared key is %d long, want 4", chain)
	}
	if got := len(m.arena); got != 7 {
		t.Fatalf("arena holds %d IDs, want 7: repeats must be truncated back", got)
	}
}
