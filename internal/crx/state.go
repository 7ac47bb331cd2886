package crx

import (
	"sort"

	"dtdinfer/internal/intern"
	smp "dtdinfer/internal/sample"
)

// State is the incremental summary CRX maintains instead of the raw sample
// (Section 9, incremental computation): the →W edge relation, the order in
// which symbols were first seen (for a deterministic topological sort), and
// a multiset of per-string occurrence profiles with counts capped at two —
// two is all the quantifier assignment distinguishes ("zero, one, or more").
// The summary is quadratic in the alphabet plus one entry per distinct
// profile; merging two summaries is exact, so incremental inference equals
// batch inference.
//
// Symbols are interned into dense IDs assigned in first-seen order, so the
// ID doubles as the first-seen rank. The →W relation is a bitset adjacency
// indexed by ID, and per-string occurrence counting uses generation-stamped
// scratch arrays instead of a fresh map per string, making AddString
// allocation-free once the alphabet and profile set stabilize.
type State struct {
	tab   *intern.Table
	edges []intern.Bitset // edges[from] = →W successors of from
	// profiles maps each distinct per-string occurrence vector to its
	// index in mults, how many sample strings produced exactly it. A key
	// holds five bytes per symbol present, in ascending ID order: the ID
	// (little-endian) and its count capped at two. Decoding the key when
	// it is read spares two allocations per profile.
	profiles map[string]int
	mults    []int
	total    int

	// Per-string scratch, reset by generation stamping. State is not safe
	// for concurrent use, exactly like the map-based predecessor.
	counts  []uint8  // occurrences of each ID in the current string, capped at 2
	stamp   []uint64 // generation that last touched counts[id]
	gen     uint64
	touched []int32 // IDs seen in the current string, insertion order
	keyBuf  []byte  // reusable profile-key buffer
}

// NewState returns an empty summary.
func NewState() *State {
	return &State{
		tab:      intern.NewTable(),
		profiles: map[string]int{},
	}
}

// internID interns s and grows the ID-indexed tables to cover the new ID.
func (st *State) internID(s string) int {
	id := st.tab.Intern(s)
	for len(st.counts) <= id {
		st.counts = append(st.counts, 0)
		st.stamp = append(st.stamp, 0)
		st.edges = append(st.edges, nil)
	}
	return id
}

// AddString folds one sample string into the summary.
func (st *State) AddString(w []string) {
	st.total++
	st.gen++
	st.touched = st.touched[:0]
	prev := -1
	for _, s := range w {
		id := st.internID(s)
		if st.stamp[id] != st.gen {
			st.stamp[id] = st.gen
			st.counts[id] = 1
			st.touched = append(st.touched, int32(id))
		} else if st.counts[id] < 2 {
			st.counts[id]++
		}
		if prev >= 0 {
			st.edges[prev].Set(id)
		}
		prev = id
	}
	st.bumpProfile()
}

// AddSample folds a counted sample into the summary: each unique sequence
// is processed once, with its multiplicity added to the matching profile.
// The result is identical to AddString over the expanded strings —
// quantifier assignment only reads per-string occurrence vectors and their
// multiplicities, both of which the counted path preserves exactly. Symbol
// IDs are remapped from the sample's intern table once per call, so no
// string hashing happens on the per-sequence path.
func (st *State) AddSample(s *smp.Set) {
	remap := make([]int32, s.NumSymbols())
	for i := range remap {
		remap[i] = -1
	}
	s.ForEach(func(w []int32, n int) {
		st.total += n
		st.gen++
		st.touched = st.touched[:0]
		prev := -1
		for _, sid := range w {
			id := int(remap[sid])
			if id < 0 {
				id = st.internID(s.Name(int(sid)))
				remap[sid] = int32(id)
			}
			if st.stamp[id] != st.gen {
				st.stamp[id] = st.gen
				st.counts[id] = 1
				st.touched = append(st.touched, int32(id))
			} else if st.counts[id] < 2 {
				st.counts[id]++
			}
			if prev >= 0 {
				st.edges[prev].Set(id)
			}
			prev = id
		}
		st.bumpProfileCount(n)
	})
}

// bumpProfile records the occurrence vector of the string just folded in,
// reading counts for the IDs in touched.
func (st *State) bumpProfile() { st.bumpProfileCount(1) }

// bumpProfileCount is bumpProfile with a multiplicity.
func (st *State) bumpProfileCount(n int) {
	// Insertion sort: strings rarely touch many distinct symbols, and the
	// IDs arrive nearly sorted for samples that reuse a stable alphabet.
	t := st.touched
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j-1] > t[j]; j-- {
			t[j-1], t[j] = t[j], t[j-1]
		}
	}
	st.keyBuf = st.keyBuf[:0]
	for _, id := range t {
		st.keyBuf = appendProfileEntry(st.keyBuf, id, st.counts[id])
	}
	st.addProfile(n)
}

// appendProfileEntry appends one symbol's five bytes to a profile key.
func appendProfileEntry(key []byte, id int32, count uint8) []byte {
	return append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), count)
}

// profileEntry decodes the i-th symbol of a profile key.
func profileEntry(key string, i int) (id int, count uint8) {
	k := key[5*i:]
	return int(k[0]) | int(k[1])<<8 | int(k[2])<<16 | int(k[3])<<24, k[4]
}

// addProfile adds n strings to the profile whose key is in keyBuf.
func (st *State) addProfile(n int) {
	i, ok := st.profiles[string(st.keyBuf)]
	if !ok {
		i = len(st.mults)
		st.profiles[string(st.keyBuf)] = i
		st.mults = append(st.mults, 0)
	}
	st.mults[i] += n
}

// Merge folds another summary into st, implementing incremental
// recomputation: summarize only the newly arrived strings and merge.
func (st *State) Merge(other *State) {
	// Preserve first-seen order: iterating other's IDs in ascending order is
	// exactly other's first-seen order, so symbols new to st get ranks after
	// all of st's, in the order other first saw them.
	remap := make([]int32, other.tab.Len())
	for oid := 0; oid < other.tab.Len(); oid++ {
		remap[oid] = int32(st.internID(other.tab.Name(oid)))
	}
	for from, bs := range other.edges {
		nf := int(remap[from])
		bs.ForEach(func(to int) {
			st.edges[nf].Set(int(remap[to]))
		})
	}
	pairs := make([][2]int32, 0, 16) // (new id, count), re-sorted after remap
	for key, pi := range other.profiles {
		pairs = pairs[:0]
		for i := 0; i < len(key)/5; i++ {
			oid, count := profileEntry(key, i)
			pairs = append(pairs, [2]int32{remap[oid], int32(count)})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
		st.keyBuf = st.keyBuf[:0]
		for _, pr := range pairs {
			st.keyBuf = appendProfileEntry(st.keyBuf, pr[0], uint8(pr[1]))
		}
		st.addProfile(other.mults[pi])
	}
	st.total += other.total
}

// Total returns the number of strings summarized.
func (st *State) Total() int { return st.total }

// rank returns the first-seen rank of a symbol (its interned ID).
func (st *State) rank(s string) (int, bool) { return st.tab.Lookup(s) }

func (st *State) symbols() []string {
	out := make([]string, 0, st.tab.Len())
	for id := 0; id < st.tab.Len(); id++ {
		out = append(out, st.tab.Name(id))
	}
	sort.Strings(out)
	return out
}

func (st *State) successors(s string) []string {
	id, ok := st.tab.Lookup(s)
	if !ok || id >= len(st.edges) {
		return nil
	}
	var out []string
	st.edges[id].ForEach(func(to int) {
		out = append(out, st.tab.Name(to))
	})
	sort.Strings(out)
	return out
}

// forEachEdge calls f for every →W edge, by symbol name.
func (st *State) forEachEdge(f func(a, b string)) {
	for from, bs := range st.edges {
		fa := st.tab.Name(from)
		bs.ForEach(func(to int) {
			f(fa, st.tab.Name(to))
		})
	}
}

// classCounts returns how many sample strings contain zero occurrences of
// symbols from the class (n0), exactly one (n1), and two or more (n2).
func (st *State) classCounts(class []string) (n0, n1, n2 int) {
	mark := make([]bool, st.tab.Len())
	for _, s := range class {
		if id, ok := st.tab.Lookup(s); ok {
			mark[id] = true
		}
	}
	for key, pi := range st.profiles {
		total := 0
		for i := 0; i < len(key)/5 && total < 2; i++ {
			if id, count := profileEntry(key, i); mark[id] {
				total += int(count)
			}
		}
		switch {
		case total == 0:
			n0 += st.mults[pi]
		case total == 1:
			n1 += st.mults[pi]
		default:
			n2 += st.mults[pi]
		}
	}
	return n0, n1, n2
}
