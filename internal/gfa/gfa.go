// Package gfa implements generalized finite automata (automata whose states
// are labeled with regular expressions) and the rewrite algorithm of
// Section 5 of the paper, which transforms a single occurrence automaton
// into an equivalent SORE when one exists — in polynomial time and with an
// output of linear size, in contrast to classical state elimination.
//
// A GFA node labeled r means: every incoming edge reads a string of L(r).
// The rewrite system has four rules, one per operator:
//
//	disjunction    merge states with equal predecessor and successor sets
//	concatenation  merge a maximal chain of states
//	self-loop      delete a self edge, relabel r to r+
//	optional       relabel r to r?, delete the bypass edges it subsumes
//
// Predecessor and successor sets are computed on the ε-closure G*, which
// adds self edges for repeatable labels (r+, r*) and shortcut edges along
// paths through nullable intermediate states.
package gfa

import (
	"fmt"
	"math/bits"
	"slices"

	"dtdinfer/internal/intern"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

// SourceID and SinkID are the node ids of the virtual initial and final
// states of every GFA.
const (
	SourceID = 0
	SinkID   = 1
)

// GFA is a single occurrence generalized finite automaton. Nodes carry
// SORE labels; edges are unlabeled. Edge supports (inherited from the SOA
// sample counts) back the noise-handling variant of iDTD.
//
// Storage is dense and indexed by node id. Ids are minted in order and
// never reused; an automaton converted from an n-symbol SOA stays below
// 2n+2 ids (every merge retires at least two nodes and mints one), and
// FromSOA sizes every row for that bound up front.
type GFA struct {
	labels []*regex.Expr // nil for the source, the sink and removed nodes
	// live holds the labeled nodes; nullable and repeatable cache those
	// properties of their labels.
	live, nullable, repeatable intern.Bitset
	succ, pred                 []intern.Bitset // real edges
	// supports[id][i] is the support of the edge from id to the i-th
	// member of succ[id].
	supports [][]int
	next     int
	cl       Closure // the buffers Closure fills
	chain    []int   // reused by TryConcat
	trace    []string
	tracing  bool
}

// EnableTrace makes subsequent rule applications append a human-readable
// step description, retrievable with Trace — the tool behind reproducing
// the paper's Figure 3 derivation step by step.
func (g *GFA) EnableTrace() { g.tracing = true }

// Trace returns the recorded rule applications in order.
func (g *GFA) Trace() []string { return append([]string{}, g.trace...) }

// tracef records a step; callers check g.tracing first, so an untraced
// run does not box the arguments.
func (g *GFA) tracef(format string, args ...interface{}) {
	g.trace = append(g.trace, fmt.Sprintf(format, args...))
}

// New returns a GFA containing only the virtual source and sink.
func New() *GFA { return newGFA(2) }

// newGFA returns a GFA holding only the source and sink, with rows for
// ids below capacity cut from one backing array and capped, so a row that
// outgrows them reallocates instead of overwriting its neighbour.
func newGFA(capacity int) *GFA {
	words := (capacity + 63) >> 6
	backing := make([]uint64, 2*capacity*words)
	g := &GFA{
		labels:   make([]*regex.Expr, capacity),
		succ:     make([]intern.Bitset, capacity),
		pred:     make([]intern.Bitset, capacity),
		supports: make([][]int, capacity),
		next:     2,
	}
	for i := range g.succ {
		row := backing[2*i*words:]
		g.succ[i], g.pred[i] = row[:words:words], row[words:2*words:2*words]
	}
	return g
}

// FromSOA converts a single occurrence automaton into the corresponding GFA
// with one state per element name, carrying over edge supports. When the SOA
// accepts the empty string, a direct source→sink edge represents it; the
// optional rule later consumes that edge as a bypass, so nullable SOREs such
// as (a b)? are recovered exactly.
//
// The conversion consumes the SOA's interned alphabet directly: nodes are
// allocated in name order (so node IDs are reproducible) and edges are
// translated through a dense ID remap instead of a string-keyed index.
func FromSOA(a *soa.SOA) *GFA {
	ids := a.SymbolIDs()
	g := newGFA(2*len(ids) + 2)
	remap := make([]int, a.NumIDs())
	remap[soa.SourceID] = SourceID
	remap[soa.SinkID] = SinkID
	for _, sid := range ids {
		remap[sid] = g.AddNode(regex.Sym(a.NameByID(sid)))
	}
	// Reserve each support row at its out-degree, from one backing array.
	deg := make([]int, g.next)
	total := 0
	a.ForEachEdgeID(func(from, _, _ int) { deg[remap[from]]++; total++ })
	backing := make([]int, total)
	for id, d := range deg {
		g.supports[id], backing = backing[:0:d], backing[d:]
	}
	a.ForEachEdgeID(func(from, to, support int) {
		g.AddEdgeSupport(remap[from], remap[to], support)
	})
	if a.AcceptsEmpty() {
		g.AddEdge(SourceID, SinkID)
	}
	return g
}

// AddNode inserts a fresh node with the given label and returns its id.
func (g *GFA) AddNode(label *regex.Expr) int {
	id := g.next
	g.next++
	if id == len(g.succ) {
		g.labels = append(g.labels, nil)
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
		g.supports = append(g.supports, nil)
	}
	g.live.Set(id)
	g.setLabel(id, label)
	return id
}

// setLabel relabels a node and refreshes the cached label properties.
func (g *GFA) setLabel(id int, l *regex.Expr) {
	g.labels[id] = l
	g.nullable.Clear(id)
	g.repeatable.Clear(id)
	if l.Nullable() {
		g.nullable.Set(id)
	}
	if l.Op == regex.OpPlus || l.Op == regex.OpStar {
		g.repeatable.Set(id)
	}
}

// RemoveNode deletes a node and all incident edges.
func (g *GFA) RemoveNode(id int) {
	g.succ[id].ForEach(func(t int) { g.pred[t].Clear(id) })
	clear(g.succ[id])
	g.supports[id] = g.supports[id][:0]
	g.pred[id].ForEach(func(f int) { g.RemoveEdge(f, id) })
	clear(g.pred[id])
	g.labels[id] = nil
	g.live.Clear(id)
	g.nullable.Clear(id)
	g.repeatable.Clear(id)
}

// edge inserts (from, to) when absent, with zero support, and returns the
// index of its support in supports[from].
func (g *GFA) edge(from, to int) int {
	had := g.succ[from].Has(to)
	g.succ[from].Set(to)
	g.pred[to].Set(from)
	i := rank(g.succ[from], to)
	if !had {
		g.supports[from] = slices.Insert(g.supports[from], i, 0)
	}
	return i
}

// rank returns the number of members of b below i; b must reach i's word.
func rank(b intern.Bitset, i int) int {
	n := bits.OnesCount64(b[i>>6] & (1<<uint(i&63) - 1))
	for _, word := range b[:i>>6] {
		n += bits.OnesCount64(word)
	}
	return n
}

// AddEdge inserts the edge (from, to).
func (g *GFA) AddEdge(from, to int) { g.edge(from, to) }

// AddEdgeSupport inserts the edge and records a support count, accumulating
// when the edge already exists.
func (g *GFA) AddEdgeSupport(from, to, support int) {
	g.supports[from][g.edge(from, to)] += support
}

// RemoveEdge deletes the edge (from, to).
func (g *GFA) RemoveEdge(from, to int) {
	if !g.succ[from].Has(to) {
		return
	}
	i := rank(g.succ[from], to)
	g.supports[from] = slices.Delete(g.supports[from], i, i+1)
	g.succ[from].Clear(to)
	g.pred[to].Clear(from)
}

// HasEdge reports whether (from, to) is an edge.
func (g *GFA) HasEdge(from, to int) bool { return g.succ[from].Has(to) }

// EdgeSupport returns the recorded support of an edge (zero when untracked).
func (g *GFA) EdgeSupport(from, to int) int {
	if !g.HasEdge(from, to) {
		return 0
	}
	return g.supports[from][rank(g.succ[from], to)]
}

// Label returns the label of a node (nil for source and sink).
func (g *GFA) Label(id int) *regex.Expr { return g.labels[id] }

// Nodes returns the ids of all labeled nodes in ascending order.
func (g *GFA) Nodes() []int { return g.live.Members() }

// NumNodes returns the number of labeled nodes.
func (g *GFA) NumNodes() int { return g.live.Count() }

// Successors returns the successor ids of a node in ascending order.
func (g *GFA) Successors(id int) []int { return g.succ[id].Members() }

// Predecessors returns the predecessor ids of a node in ascending order.
func (g *GFA) Predecessors(id int) []int { return g.pred[id].Members() }

// OutDegree and InDegree count real edges.
func (g *GFA) OutDegree(id int) int { return g.succ[id].Count() }

// InDegree counts real incoming edges.
func (g *GFA) InDegree(id int) int { return g.pred[id].Count() }

// only returns the sole member of a one-member set, or -1.
func only(b intern.Bitset) int {
	if b.Count() == 1 {
		for w, word := range b {
			if word != 0 {
				return w<<6 + bits.TrailingZeros64(word)
			}
		}
	}
	return -1
}

// IsFinal reports whether the GFA consists of a single labeled node r with
// exactly the edges source→r and r→sink, at which point the label is the
// resulting regular expression.
func (g *GFA) IsFinal() bool {
	id := only(g.live)
	return id >= 0 && only(g.succ[SourceID]) == id && only(g.pred[SinkID]) == id &&
		only(g.succ[id]) == SinkID && only(g.pred[id]) == SourceID
}

// FinalExpr returns the label of the unique node of a final GFA.
// It panics when the GFA is not final.
func (g *GFA) FinalExpr() *regex.Expr {
	if !g.IsFinal() {
		panic("gfa: FinalExpr on non-final GFA")
	}
	return g.labels[only(g.live)]
}

// String renders the GFA for debugging: one line per node with its label
// and successors.
func (g *GFA) String() string {
	out := "GFA{\n"
	name := func(id int) string {
		switch id {
		case SourceID:
			return "⊢"
		case SinkID:
			return "⊣"
		}
		return g.labels[id].String()
	}
	ids := append([]int{SourceID}, g.Nodes()...)
	for _, id := range ids {
		succs := g.Successors(id)
		parts := make([]string, len(succs))
		for i, t := range succs {
			parts[i] = name(t)
		}
		out += fmt.Sprintf("  %s -> %v\n", name(id), parts)
	}
	return out + "}"
}

// Edges returns all edges in ascending (from, to) order.
func (g *GFA) Edges() [][2]int {
	var out [][2]int
	for f, row := range g.succ {
		row.ForEach(func(t int) { out = append(out, [2]int{f, t}) })
	}
	return out
}
