package idtd

import (
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/intern"
)

// repairOnce applies one repair rule at fuzziness k. Mutually
// interconnected disjunction candidates (precondition (b)) — the signature
// of symbols from one repeated disjunction, as in the paper's Figure 2 —
// are repaired first. Otherwise the cheapest plan wins between similarity
// disjunctions (precondition (a)) and enable-optional, preferring optional
// on ties: making a state skippable preserves the order information that a
// merge would destroy, which reproduces the paper's example4 result
// (a6+...+a61)* a5* rather than folding a5 into the disjunction.
func repairOnce(g *gfa.GFA, k int, policy RepairPolicy) bool {
	cl := g.Closure()
	nodes := g.Nodes()
	inter, dis := bestDisjunctionRepairs(cl, nodes, k)
	if inter != nil {
		inter.apply(g, cl)
		return true
	}
	opt := bestOptionalRepair(g, cl, nodes, k)
	var chosen *repairPlan
	switch {
	case dis == nil && opt == nil:
		return false
	case dis == nil:
		chosen = opt
	case opt == nil:
		chosen = dis
	default:
		switch policy {
		case PolicyDisjunctionFirst:
			chosen = dis
		case PolicyOptionalFirst:
			chosen = opt
		default: // PolicyBalanced
			if dis.cost < opt.cost {
				chosen = dis
			} else {
				chosen = opt
			}
		}
	}
	chosen.apply(g, cl)
	return true
}

// repairPlan is a repair chosen on a closure and the number of edges it
// adds: an enable-disjunction on the pair u, v, or (v < 0) an
// enable-optional on the state u.
type repairPlan struct {
	u, v, cost int
}

// apply adds the plan's edges. The edges are collected from the closure
// before the first is added, since adding one invalidates the closure.
func (p *repairPlan) apply(g *gfa.GFA, cl *gfa.Closure) {
	var adds [][2]int
	add := func(from, to int) { adds = append(adds, [2]int{from, to}) }
	u, v := p.u, p.v
	if v < 0 {
		// Every bypass Pred(u) × Succ(u) but source→sink, which the plan
		// only admits when present.
		cl.Pred(u).ForEach(func(pr int) {
			cl.Succ(u).ForEach(func(s int) {
				if pr != u && s != u && !g.HasEdge(pr, s) {
					add(pr, s)
				}
			})
		})
	} else {
		// Equalize the external predecessor and successor sets of u and v,
		// then interconnect them fully (self loops included) when any edge
		// runs between them — the disjunction rule's case (ii). A closure
		// edge missing from G* is missing from G too, since E ⊆ E*.
		for _, w := range [2][2]int{{u, v}, {v, u}} {
			cl.Pred(w[1]).ForEach(func(pr int) {
				if pr != u && pr != v && !cl.Pred(w[0]).Has(pr) {
					add(pr, w[0])
				}
			})
			cl.Succ(w[1]).ForEach(func(s int) {
				if s != u && s != v && !cl.Succ(w[0]).Has(s) {
					add(w[0], s)
				}
			})
		}
		if interconnected(cl, u, v) > 0 {
			for _, e := range [4][2]int{{u, u}, {u, v}, {v, u}, {v, v}} {
				if !cl.Succ(e[0]).Has(e[1]) {
					add(e[0], e[1])
				}
			}
		}
	}
	for _, e := range adds {
		g.AddEdgeSupport(e[0], e[1], 0)
	}
}

// interconnected counts the closure edges among u and v, self loops
// included.
func interconnected(cl *gfa.Closure, u, v int) (n int) {
	for _, e := range [4][2]int{{u, u}, {u, v}, {v, u}, {v, v}} {
		if cl.Succ(e[0]).Has(e[1]) {
			n++
		}
	}
	return n
}

// bestDisjunctionRepairs implements enable-disjunction restricted to pairs
// (the paper's implementation choice): find states u, v whose predecessor
// and successor sets are close (precondition (a): non-empty intersection
// and symmetric differences of size at most k) or mutually interconnected
// (precondition (b): each is a predecessor and successor of the other), and
// plan the minimal edge set making Pred(u) = Pred(v) and Succ(u) = Succ(v),
// after which the disjunction rewrite rule applies. It returns the
// cheapest (b)-pair and the cheapest (a)-pair that need any edges, nil
// when there is none; of equally cheap plans the first pair in id order
// wins.
func bestDisjunctionRepairs(cl *gfa.Closure, nodes []int, k int) (inter, similar *repairPlan) {
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			condB := cl.Pred(u).Has(v) && cl.Succ(u).Has(v) &&
				cl.Pred(v).Has(u) && cl.Succ(v).Has(u)
			sharedP, pu, pv := cl.Diff(u, v, false)
			sharedS, su, sv := cl.Diff(u, v, true)
			best := &inter
			if !condB {
				if !(sharedP && sharedS && pu <= k && pv <= k && su <= k && sv <= k) {
					continue
				}
				best = &similar
			}
			cost := pu + pv + su + sv
			if n := interconnected(cl, u, v); n > 0 {
				cost += 4 - n
			}
			// A zero cost means the pair is already mergeable; saturation
			// will handle it.
			if cost > 0 && (*best == nil || cost < (*best).cost) {
				*best = &repairPlan{u, v, cost}
			}
		}
	}
	return inter, similar
}

// bestOptionalRepair implements enable-optional: pick a state r with
// (a) at least one existing edge from a predecessor of r to a successor of
// r, or (b) a single predecessor r' with |Succ(r') \ {r, r'}| <= k, and
// plan all missing bypass edges Pred(r) × Succ(r), enabling the optional
// rewrite rule on r. Of equally cheap plans the first state wins.
func bestOptionalRepair(g *gfa.GFA, cl *gfa.Closure, nodes []int, k int) *repairPlan {
	var best *repairPlan
	for _, r := range nodes {
		if g.Label(r).Nullable() {
			continue // optional would make no progress on r
		}
		preds, succs := cl.Pred(r), cl.Succ(r)
		if countMod(preds, r, r) == 0 || countMod(succs, r, r) == 0 {
			continue
		}
		if preds.Has(gfa.SourceID) && succs.Has(gfa.SinkID) && !g.HasEdge(gfa.SourceID, gfa.SinkID) {
			// The bypass source→sink would add ε to the language, which no
			// expression can denote; optional cannot be enabled for r.
			continue
		}
		// condA: some bypass exists already. The cost counts the missing
		// ones; source→sink, if a bypass, exists.
		condA, cost := false, 0
		preds.ForEach(func(p int) {
			succs.ForEach(func(s int) {
				switch {
				case p == r || s == r:
				case g.HasEdge(p, s):
					condA = true
				default:
					cost++
				}
			})
		})
		// condB: a single predecessor with at most k other successors.
		condB := false
		if countMod(preds, r, r) == 1 {
			for _, rp := range preds.Members() {
				condB = condB || rp != r && countMod(cl.Succ(rp), r, rp) <= k
			}
		}
		if !condA && !condB {
			continue
		}
		if cost > 0 && (best == nil || cost < best.cost) {
			best = &repairPlan{r, -1, cost}
		}
	}
	return best
}

// countMod counts the members of set other than u and v.
func countMod(set intern.Bitset, u, v int) int {
	n := set.Count()
	if set.Has(u) {
		n--
	}
	if v != u && set.Has(v) {
		n--
	}
	return n
}
