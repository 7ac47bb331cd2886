// Package soa implements single occurrence automata and the 2T-INF
// inference algorithm of Garcia and Vidal, as used in Section 4 of the
// paper. An SOA is an automaton in which every element name labels at most
// one state; it is fully determined by its sets of initial symbols I, final
// symbols F and allowed 2-grams S, so 2T-INF reduces to collecting those
// sets from the sample. Every SORE has an up-to-isomorphism unique SOA
// (Proposition 1).
//
// The SOA additionally records support counts — how many sample strings
// witnessed each symbol and edge — which back the noise-handling extension
// of Section 9, and it supports merging for incremental recomputation.
//
// Internally the automaton interns element names into dense integer IDs
// (Source = 0, Sink = 1, element symbols from 2, in first-seen order) and
// keeps the edge relation as slice-backed adjacency rows of support
// counts. AddString therefore performs no allocation on the hot path
// beyond amortized row growth: no nested map insertions, and per-string
// symbol support is tracked with generation stamps instead of a fresh
// `seen` map per call. The string-keyed API is preserved on top of the
// interned core; gfa consumes the IDs directly via SymbolIDs/ForEachEdgeID.
package soa

import (
	"fmt"
	"sort"
	"strings"

	"dtdinfer/internal/intern"
	"dtdinfer/internal/regex"
	smp "dtdinfer/internal/sample"
)

// Source and Sink are the reserved names of the virtual initial and final
// states. They cannot be used as element names.
const (
	Source = "⊢"
	Sink   = "⊣"
)

// SourceID and SinkID are the interned IDs of the virtual initial and
// final states; element symbols are interned from 2 upward in first-seen
// order.
const (
	SourceID = 0
	SinkID   = 1
)

// SOA is a single occurrence automaton with support counts.
type SOA struct {
	// tab interns Source (ID 0), Sink (ID 1) and element names (IDs >= 2).
	tab *intern.Table
	// alive marks element IDs currently in the automaton; pruned symbols
	// stay interned but dead until re-added.
	alive []bool
	// edges[from][to] is the number of sample strings witnessing the
	// 2-gram (from, to); the virtual Source and Sink appear as endpoints
	// for initial and final symbols. Rows grow on demand; an edge in the
	// automaton is any entry with count >= 1.
	edges [][]int
	// edgeCount tracks the number of entries with count >= 1.
	edgeCount int
	// symSupport[id] counts sample strings containing the symbol.
	symSupport []int
	// lastSeen and gen stamp the symbols of the current AddString call so
	// per-string symbol support needs no per-call set allocation.
	lastSeen []uint64
	gen      uint64
	// emptyCount counts empty sample strings (ε-acceptance).
	emptyCount int
	// total counts all sample strings seen.
	total int
}

// New returns an empty SOA accepting no strings.
func New() *SOA {
	a := &SOA{tab: intern.NewTable()}
	a.tab.Intern(Source)
	a.tab.Intern(Sink)
	a.alive = make([]bool, 2)
	a.symSupport = make([]int, 2)
	a.lastSeen = make([]uint64, 2)
	a.edges = make([][]int, 2)
	return a
}

// Infer runs 2T-INF on the sample: the result is the canonical SOA whose
// language is the smallest 2-testable language containing every string.
func Infer(sample [][]string) *SOA {
	a := New()
	for _, w := range sample {
		a.AddString(w)
	}
	return a
}

// InferSample is Infer on a counted, interned sample: each unique
// sequence is processed once and contributes its multiplicity to every
// support count, producing the same automaton byte for byte as Infer on
// the expanded strings.
func InferSample(s *smp.Set) *SOA {
	a := New()
	a.AddSample(s)
	return a
}

// AddSample folds a counted sample into the automaton. Symbol IDs are
// remapped from the sample's intern table once per call, so no string
// hashing happens on the per-sequence path.
func (a *SOA) AddSample(s *smp.Set) {
	remap := make([]int, s.NumSymbols())
	for i := range remap {
		remap[i] = -1
	}
	s.ForEach(func(w []int32, n int) {
		a.total += n
		if len(w) == 0 {
			a.emptyCount += n
			return
		}
		a.gen++
		prev := SourceID
		for _, sid := range w {
			id := remap[sid]
			if id < 0 {
				name := s.Name(int(sid))
				if name == Source || name == Sink {
					panic(fmt.Sprintf("soa: reserved symbol %q in sample", name))
				}
				id = a.internID(name)
				remap[sid] = id
			}
			if a.lastSeen[id] != a.gen {
				a.lastSeen[id] = a.gen
				a.symSupport[id] += n
			}
			a.bumpIDCount(prev, id, n)
			prev = id
		}
		a.bumpIDCount(prev, SinkID, n)
	})
}

// internID interns an element name and marks it alive, growing the
// per-symbol slices when the ID is new.
func (a *SOA) internID(s string) int {
	id := a.tab.Intern(s)
	if id >= len(a.alive) {
		a.alive = append(a.alive, false)
		a.symSupport = append(a.symSupport, 0)
		a.lastSeen = append(a.lastSeen, 0)
		a.edges = append(a.edges, nil)
	}
	a.alive[id] = true
	return id
}

// idOf resolves a symbol (or virtual state name) without interning.
func (a *SOA) idOf(s string) (int, bool) {
	id, ok := a.tab.Lookup(s)
	if !ok || (id >= 2 && !a.alive[id]) {
		return -1, false
	}
	return id, true
}

// AddString extends the automaton with one sample string, incrementally
// updating the sets I, F and S and all support counts.
func (a *SOA) AddString(w []string) {
	a.total++
	if len(w) == 0 {
		a.emptyCount++
		return
	}
	a.gen++
	prev := SourceID
	for _, s := range w {
		if s == Source || s == Sink {
			panic(fmt.Sprintf("soa: reserved symbol %q in sample", s))
		}
		id := a.internID(s)
		if a.lastSeen[id] != a.gen {
			a.lastSeen[id] = a.gen
			a.symSupport[id]++
		}
		a.bumpID(prev, id)
		prev = id
	}
	a.bumpID(prev, SinkID)
}

// bumpID increments the support of an edge given by interned IDs.
func (a *SOA) bumpID(from, to int) { a.bumpIDCount(from, to, 1) }

// bumpIDCount adds n to the support of an edge given by interned IDs.
func (a *SOA) bumpIDCount(from, to, n int) {
	row := a.edges[from]
	if len(row) <= to {
		grown := make([]int, a.tab.Len())
		copy(grown, row)
		a.edges[from] = grown
		row = grown
	}
	if row[to] == 0 {
		a.edgeCount++
	}
	row[to] += n
}

// supportID returns the support of an edge given by interned IDs.
func (a *SOA) supportID(from, to int) int {
	row := a.edges[from]
	if to >= len(row) {
		return 0
	}
	return row[to]
}

// resolve interns a symbol, mapping the virtual state names to their IDs.
func (a *SOA) resolve(s string) int {
	switch s {
	case Source:
		return SourceID
	case Sink:
		return SinkID
	}
	return a.internID(s)
}

// AddEdge inserts an edge with the given support (default use: support 1),
// creating the endpoint states as needed. It is used by repair rules and by
// direct automaton construction in tests.
func (a *SOA) AddEdge(from, to string) {
	a.bumpID(a.resolve(from), a.resolve(to))
}

// RemoveEdge deletes an edge regardless of support.
func (a *SOA) RemoveEdge(from, to string) {
	f, ok := a.idOf(from)
	if !ok {
		return
	}
	t, ok := a.idOf(to)
	if !ok {
		return
	}
	a.removeEdgeID(f, t)
}

func (a *SOA) removeEdgeID(from, to int) {
	row := a.edges[from]
	if to < len(row) && row[to] > 0 {
		row[to] = 0
		a.edgeCount--
	}
}

// HasEdge reports whether the automaton has an edge from one symbol to
// another; Source and Sink address the virtual states.
func (a *SOA) HasEdge(from, to string) bool {
	return a.EdgeSupport(from, to) > 0
}

// EdgeSupport returns the number of sample strings witnessing the edge.
func (a *SOA) EdgeSupport(from, to string) int {
	f, ok := a.idOf(from)
	if !ok {
		return 0
	}
	t, ok := a.idOf(to)
	if !ok {
		return 0
	}
	return a.supportID(f, t)
}

// SymbolSupport returns the number of sample strings containing the symbol.
func (a *SOA) SymbolSupport(s string) int {
	id, ok := a.idOf(s)
	if !ok || id < 2 {
		return 0
	}
	return a.symSupport[id]
}

// Total returns the number of sample strings consumed.
func (a *SOA) Total() int { return a.total }

// AcceptsEmpty reports whether the empty string is accepted (it was seen in
// the sample).
func (a *SOA) AcceptsEmpty() bool { return a.emptyCount > 0 }

// Symbols returns the sorted alphabet of the automaton.
func (a *SOA) Symbols() []string {
	out := make([]string, 0, a.tab.Len()-2)
	for id := 2; id < a.tab.Len(); id++ {
		if a.alive[id] {
			out = append(out, a.tab.Name(id))
		}
	}
	sort.Strings(out)
	return out
}

// NumIDs returns the size of the interned ID space, virtual states
// included; valid IDs are [0, NumIDs).
func (a *SOA) NumIDs() int { return a.tab.Len() }

// NameByID returns the name interned at id (Source for SourceID, Sink for
// SinkID).
func (a *SOA) NameByID(id int) string { return a.tab.Name(id) }

// SymbolIDs returns the IDs of the alive element symbols ordered by name —
// the same order as Symbols. It lets ID-based consumers such as gfa map
// the alphabet without rebuilding a string-keyed index.
func (a *SOA) SymbolIDs() []int {
	out := make([]int, 0, a.tab.Len()-2)
	for id := 2; id < a.tab.Len(); id++ {
		if a.alive[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return a.tab.Name(out[i]) < a.tab.Name(out[j]) })
	return out
}

// ForEachEdgeID calls f for every edge (count >= 1) by interned IDs,
// virtual endpoints included, in ascending (from, to) ID order.
func (a *SOA) ForEachEdgeID(f func(from, to, support int)) {
	for from, row := range a.edges {
		for to, c := range row {
			if c > 0 {
				f(from, to, c)
			}
		}
	}
}

// Successors returns the sorted successors of a state (possibly including
// Sink). Pass Source for the initial symbols.
func (a *SOA) Successors(s string) []string {
	id, ok := a.idOf(s)
	if !ok {
		return nil
	}
	row := a.edges[id]
	out := make([]string, 0, len(row))
	for t, c := range row {
		if c > 0 {
			out = append(out, a.tab.Name(t))
		}
	}
	sort.Strings(out)
	return out
}

// Predecessors returns the sorted predecessors of a state (possibly
// including Source). Pass Sink for the final symbols.
func (a *SOA) Predecessors(s string) []string {
	id, ok := a.idOf(s)
	if !ok {
		return nil
	}
	var out []string
	for f, row := range a.edges {
		if id < len(row) && row[id] > 0 {
			out = append(out, a.tab.Name(f))
		}
	}
	sort.Strings(out)
	return out
}

// InitialSymbols returns the set I of symbols that may start a string.
func (a *SOA) InitialSymbols() []string {
	return dropVirtual(a.Successors(Source))
}

// FinalSymbols returns the set F of symbols that may end a string.
func (a *SOA) FinalSymbols() []string {
	return dropVirtual(a.Predecessors(Sink))
}

func dropVirtual(ss []string) []string {
	out := ss[:0]
	for _, s := range ss {
		if s != Source && s != Sink {
			out = append(out, s)
		}
	}
	return out
}

// EdgeCount returns the number of edges, including those from Source and to
// Sink.
func (a *SOA) EdgeCount() int { return a.edgeCount }

// Edges returns every edge (from, to) in deterministic order.
func (a *SOA) Edges() [][2]string {
	out := make([][2]string, 0, a.edgeCount)
	a.ForEachEdgeID(func(from, to, _ int) {
		out = append(out, [2]string{a.tab.Name(from), a.tab.Name(to)})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Member reports whether the automaton accepts w: the first symbol must be
// initial, every adjacent pair an edge, and the last symbol final. The empty
// string is accepted only if it occurred in the sample.
func (a *SOA) Member(w []string) bool {
	if len(w) == 0 {
		return a.AcceptsEmpty()
	}
	prev := SourceID
	for _, s := range w {
		id, ok := a.idOf(s)
		if !ok || a.supportID(prev, id) == 0 {
			return false
		}
		prev = id
	}
	return a.supportID(prev, SinkID) > 0
}

// Equal reports whether two SOAs accept the same language. Because a
// 2-testable language is uniquely identified by (I, F, S), this is a
// structural comparison of edges and ε-acceptance; supports are ignored.
func (a *SOA) Equal(b *SOA) bool {
	if a.AcceptsEmpty() != b.AcceptsEmpty() {
		return false
	}
	as, bs := a.Symbols(), b.Symbols()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return false
	}
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

// Merge folds another SOA into a, summing supports. It implements the
// incremental recomputation of Section 9: infer an SOA for the newly
// arrived data only, then merge.
func (a *SOA) Merge(b *SOA) {
	// Map b's ID space onto a's, interning b's alive symbols.
	remap := make([]int, b.tab.Len())
	remap[SourceID] = SourceID
	remap[SinkID] = SinkID
	for id := 2; id < b.tab.Len(); id++ {
		if !b.alive[id] {
			remap[id] = -1
			continue
		}
		aid := a.internID(b.tab.Name(id))
		remap[id] = aid
		a.symSupport[aid] += b.symSupport[id]
	}
	b.ForEachEdgeID(func(from, to, c int) {
		f, t := remap[from], remap[to]
		if f < 0 || t < 0 {
			return
		}
		row := a.edges[f]
		if len(row) <= t {
			grown := make([]int, a.tab.Len())
			copy(grown, row)
			a.edges[f] = grown
			row = grown
		}
		if row[t] == 0 {
			a.edgeCount++
		}
		row[t] += c
	})
	a.emptyCount += b.emptyCount
	a.total += b.total
}

// PruneSupport removes edges whose support is below edgeThreshold and
// symbols whose support is below symThreshold (together with their incident
// edges). It implements the basic noise-handling strategy of Section 9.
// Symbols that never occurred in a sample string (support 0, e.g. added
// with AddEdge) are kept, matching the support-count semantics.
func (a *SOA) PruneSupport(symThreshold, edgeThreshold int) {
	for id := 2; id < a.tab.Len(); id++ {
		if a.alive[id] && a.symSupport[id] > 0 && a.symSupport[id] < symThreshold {
			a.removeSymbolID(id)
		}
	}
	var weakEdges [][2]int
	a.ForEachEdgeID(func(from, to, c int) {
		if c < edgeThreshold {
			weakEdges = append(weakEdges, [2]int{from, to})
		}
	})
	for _, e := range weakEdges {
		a.removeEdgeID(e[0], e[1])
	}
}

func (a *SOA) removeSymbolID(id int) {
	a.alive[id] = false
	a.symSupport[id] = 0
	for to, c := range a.edges[id] {
		if c > 0 {
			a.edges[id][to] = 0
			a.edgeCount--
		}
	}
	for _, row := range a.edges {
		if id < len(row) && row[id] > 0 {
			row[id] = 0
			a.edgeCount--
		}
	}
}

// FromExpr returns the SOA of a SORE (its Glushkov automaton, which by
// Proposition 1 is single occurrence). It panics if e is not a SORE. Edge
// supports are set to 1.
func FromExpr(e *regex.Expr) *SOA {
	if !e.IsSORE() {
		panic("soa: FromExpr requires a SORE: " + e.String())
	}
	a := New()
	for _, s := range e.FirstSymbols() {
		a.AddEdge(Source, s)
	}
	for _, s := range e.LastSymbols() {
		a.AddEdge(s, Sink)
	}
	for p := range e.FollowPairs() {
		a.AddEdge(p[0], p[1])
	}
	for _, s := range e.Symbols() {
		a.internID(s)
	}
	if e.Nullable() {
		a.emptyCount = 1
	}
	return a
}

// String renders the automaton compactly for debugging and logging.
func (a *SOA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SOA{I=%v F=%v", a.InitialSymbols(), a.FinalSymbols())
	var inner []string
	for _, e := range a.Edges() {
		if e[0] != Source && e[1] != Sink {
			inner = append(inner, e[0]+e[1])
		}
	}
	fmt.Fprintf(&b, " S=%v", inner)
	if a.AcceptsEmpty() {
		b.WriteString(" +ε")
	}
	b.WriteString("}")
	return b.String()
}

// Representative reports whether the sample that produced a is representative
// for the SORE r: the SOA inferred from the sample equals the SOA of r
// (Section 4: a set is representative w.r.t. a SORE when it contains all
// corresponding 2-grams).
func (a *SOA) Representative(r *regex.Expr) bool {
	return a.Equal(FromExpr(r))
}
