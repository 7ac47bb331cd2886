package gfa

import (
	"math/bits"
	"slices"

	"dtdinfer/internal/regex"
)

// The four rewrite rules of Section 5. Each try function applies the rule
// once if possible (deterministically, scanning nodes in ascending id
// order) and reports whether it fired.

// firstLive returns the smallest labeled node satisfying ok, or -1.
func (g *GFA) firstLive(ok func(x int) bool) int {
	r := -1
	g.live.Until(func(x int) bool {
		if ok(x) {
			r = x
		}
		return r < 0
	})
	return r
}

// TrySelfLoop applies the self-loop rule: delete an edge (r, r) and relabel
// r by r+.
func (g *GFA) TrySelfLoop() bool {
	r := g.firstLive(func(x int) bool { return g.succ[x].Has(x) })
	if r < 0 {
		return false
	}
	old := g.labels[r]
	g.RemoveEdge(r, r)
	g.setLabel(r, regex.Simplify(regex.Plus(old)))
	if g.tracing {
		g.tracef("self-loop: %s becomes %s", old, g.labels[r])
	}
	return true
}

// TryOptional applies the optional rule to the first eligible node r: every
// closure-predecessor r' of r satisfies Succ(r) ⊆ Succ(r'), i.e. everything
// reachable through r from a predecessor is also reachable directly. The
// node is relabeled r? and the bypass edges (r', r”) with r' ∈ Pred(r) and
// r” ∈ Succ(r)\{r} are removed, since the ε-pass through r? now subsumes
// them. Nodes with already-nullable labels are skipped: the rule would not
// make progress.
func (g *GFA) TryOptional() bool {
	cl := g.Closure()
	r := g.firstLive(func(x int) bool {
		preds, succs := cl.pred[x], cl.succ[x]
		// It needs a predecessor and a successor besides x itself.
		return !g.nullable.Has(x) && !preds.Empty() && !succs.Empty() &&
			only(preds) != x && only(succs) != x &&
			preds.Until(func(p int) bool { return p == x || succs.SubsetOf(cl.succ[p]) })
	})
	if r < 0 {
		return false
	}
	old := g.labels[r]
	g.setLabel(r, regex.Simplify(regex.Opt(old)))
	if g.tracing {
		g.tracef("optional: %s becomes %s", old, g.labels[r])
	}
	// Remove only bypasses between real predecessors and real successors:
	// each removed edge (p, s) is re-derivable as p → r (ε) → s, so the
	// closure of the GFA is unchanged, exactly as the paper's
	// rule-interference analysis requires. Removing closure-level
	// bypasses instead could delete the edges supporting the closure
	// paths themselves and change the language.
	succs := g.succ[r]
	g.pred[r].ForEach(func(p int) {
		if p == r {
			return
		}
		for w, sw := range succs {
			bypass := word(g.succ[p], w) & sw
			if r>>6 == w {
				bypass &^= 1 << uint(r&63)
			}
			for ; bypass != 0; bypass &= bypass - 1 {
				g.RemoveEdge(p, w<<6+bits.TrailingZeros64(bypass))
			}
		}
	})
	return true
}

// TryConcat applies the concatenation rule to a maximal chain r1,...,rn
// (n >= 2): consecutive edges ri → ri+1 where every node besides r1 has
// exactly one incoming edge and every node besides rn has exactly one
// outgoing edge. The chain is replaced by a single node labeled r1···rn;
// an edge rn → r1 becomes a self edge of the new node.
func (g *GFA) TryConcat() bool {
	// A link is an edge u→v between labeled nodes where u has out-degree 1
	// and v has in-degree 1; chains are maximal link paths.
	isLink := func(u, v int) bool {
		return u != v && min(u, v) >= 0 && g.live.Has(u) && g.live.Has(v) &&
			only(g.succ[u]) == v && only(g.pred[v]) == u
	}
	u := g.firstLive(func(x int) bool { return isLink(x, only(g.succ[x])) })
	if u < 0 {
		return false
	}
	v := only(g.succ[u])
	// Extend backward from u and forward from v, guarding against a full
	// cycle (which cannot be reached from the source in practice). The
	// chain is collected backward first, then reversed.
	chain := append(g.chain[:0], v, u)
	for {
		p := only(g.pred[chain[len(chain)-1]])
		if !isLink(p, chain[len(chain)-1]) || slices.Contains(chain, p) {
			break
		}
		chain = append(chain, p)
	}
	slices.Reverse(chain)
	for {
		s := only(g.succ[chain[len(chain)-1]])
		if !isLink(chain[len(chain)-1], s) || slices.Contains(chain, s) {
			break
		}
		chain = append(chain, s)
	}
	g.chain = chain
	g.mergeChain(chain)
	return true
}

func (g *GFA) mergeChain(chain []int) {
	labels := make([]*regex.Expr, len(chain))
	for i, id := range chain {
		labels[i] = g.labels[id]
	}
	m := g.AddNode(regex.Concat(labels...))
	if g.tracing {
		g.tracef("concatenation: %d states merge into %s", len(chain), g.labels[m])
	}
	first, last := chain[0], chain[len(chain)-1]
	selfLoop := false
	var selfSupport int
	g.pred[first].ForEach(func(p int) {
		if p == last {
			selfLoop = true
			selfSupport += g.EdgeSupport(p, first)
			return
		}
		g.AddEdgeSupport(p, m, g.EdgeSupport(p, first))
	})
	g.succ[last].ForEach(func(s int) {
		// The back edge to first is the self loop handled above; the
		// internal link edges disappear with the chain.
		if !slices.Contains(chain, s) {
			g.AddEdgeSupport(m, s, g.EdgeSupport(last, s))
		}
	})
	if selfLoop {
		g.AddEdgeSupport(m, m, selfSupport)
	}
	for _, id := range chain {
		g.RemoveNode(id)
	}
}

// TryDisjunction applies the disjunction rule to the first eligible pair of
// nodes u, v: their closure predecessor and successor sets agree outside
// {u, v}, and internally either there are no edges between them in G at all
// (case i) or every ordered pair, including the self pairs, is an edge of
// the closure G* (case ii). The pair is replaced by a node labeled u + v; in
// case (ii) a self edge is added. Larger disjunctions arise by repeated
// pairwise application — the Union constructor flattens nested disjunctions
// and Simplify absorbs member quantifiers, so the final expression matches
// an n-ary merge.
func (g *GFA) TryDisjunction() bool {
	cl := g.Closure()
	internal := func(x, y int) bool {
		return g.HasEdge(x, x) || g.HasEdge(x, y) || g.HasEdge(y, x) || g.HasEdge(y, y)
	}
	v := -1
	u := g.firstLive(func(x int) bool {
		v = g.firstLive(func(y int) bool {
			if y <= x {
				return false
			}
			if _, px, py := cl.Diff(x, y, false); px+py > 0 {
				return false
			}
			_, sx, sy := cl.Diff(x, y, true)
			// Case (ii) requires full closure interconnection.
			return sx+sy == 0 && (!internal(x, y) ||
				cl.succ[x].Has(x) && cl.succ[x].Has(y) && cl.succ[y].Has(x) && cl.succ[y].Has(y))
		})
		return v >= 0
	})
	if u < 0 {
		return false
	}
	g.mergePair(u, v, internal(u, v))
	return true
}

func (g *GFA) mergePair(u, v int, selfLoop bool) {
	m := g.AddNode(regex.Union(g.labels[u], g.labels[v]))
	if g.tracing {
		kase := "i"
		if selfLoop {
			kase = "ii"
		}
		g.tracef("disjunction (case %s): %s and %s merge into %s",
			kase, g.labels[u], g.labels[v], g.labels[m])
	}
	var selfSupport int
	for _, old := range [2]int{u, v} {
		g.pred[old].ForEach(func(p int) {
			if p == u || p == v {
				selfSupport += g.EdgeSupport(p, old)
				return
			}
			g.AddEdgeSupport(p, m, g.EdgeSupport(p, old))
		})
		g.succ[old].ForEach(func(s int) {
			if s != u && s != v { // internal edges are counted from the predecessor side
				g.AddEdgeSupport(m, s, g.EdgeSupport(old, s))
			}
		})
	}
	if selfLoop {
		g.AddEdgeSupport(m, m, selfSupport)
	}
	g.RemoveNode(u)
	g.RemoveNode(v)
}
