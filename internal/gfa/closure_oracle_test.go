package gfa

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/soa"
)

// oracleClosure is the ε-closure computed the way the GFA computed it
// while its adjacency lived in maps: a breadth-first search from every
// node that passes through a visited node only when its label is nullable,
// re-deriving nullability from the label each time. It reads the GFA only
// through Nodes, Successors and Label.
func oracleClosure(g *GFA) (succ, pred map[int]map[int]bool) {
	succ, pred = map[int]map[int]bool{}, map[int]map[int]bool{}
	add := func(u, v int) {
		if succ[u] == nil {
			succ[u] = map[int]bool{}
		}
		if pred[v] == nil {
			pred[v] = map[int]bool{}
		}
		succ[u][v] = true
		pred[v][u] = true
	}
	ids := append([]int{SourceID, SinkID}, g.Nodes()...)
	for _, u := range ids {
		if repeatableLabel(g.Label(u)) {
			add(u, u)
		}
		// BFS from u: an edge (u, v) is in E* when v is reachable through
		// nullable intermediates only.
		seen := map[int]bool{}
		var queue []int
		for _, v := range g.Successors(u) {
			seen[v] = true
			queue = append(queue, v)
		}
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			add(u, v)
			if !nullableLabel(g.Label(v)) {
				continue
			}
			for _, w := range g.Successors(v) {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return succ, pred
}

func nullableLabel(l *regex.Expr) bool { return l != nil && l.Nullable() }

func repeatableLabel(l *regex.Expr) bool {
	return l != nil && (l.Op == regex.OpPlus || l.Op == regex.OpStar)
}

func sortedKeys(m map[int]bool) []int {
	out := []int{}
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// checkClosure compares every successor and predecessor row of the
// closure with the oracle's.
func checkClosure(t testing.TB, g *GFA, when string) {
	t.Helper()
	succ, pred := oracleClosure(g)
	cl := g.Closure()
	for u := 0; u < g.next; u++ {
		if got, want := append([]int{}, cl.Succ(u).Members()...), sortedKeys(succ[u]); !slices.Equal(got, want) {
			t.Fatalf("%s: Succ*(%d) = %v, oracle %v\n%s", when, u, got, want, g)
		}
		if got, want := append([]int{}, cl.Pred(u).Members()...), sortedKeys(pred[u]); !slices.Equal(got, want) {
			t.Fatalf("%s: Pred*(%d) = %v, oracle %v\n%s", when, u, got, want, g)
		}
	}
}

// saturateChecked saturates g one rule application at a time, in
// Saturate's order, checking the closure after each.
func saturateChecked(t testing.TB, g *GFA, when string) {
	t.Helper()
	checkClosure(t, g, when)
	for g.TryOptional() || g.TrySelfLoop() || g.TryConcat() || g.TryDisjunction() {
		checkClosure(t, g, when)
	}
}

// repairAtRandom adds the edges of one repair in the manner of iDTD's two
// repair rules, on a random target: enable-disjunction equalizes the
// closure predecessor and successor sets of two nodes, enable-optional
// adds every bypass around one node (but source→sink). It reports whether
// any edge was added.
func repairAtRandom(rng *rand.Rand, g *GFA) bool {
	nodes := g.Nodes()
	if len(nodes) == 0 {
		return false
	}
	cl := g.Closure()
	var adds [][2]int
	if u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]; u != v && rng.Intn(2) == 0 {
		for _, w := range [][2]int{{u, v}, {v, u}} {
			cl.Pred(w[1]).ForEach(func(p int) {
				if p != u && p != v && !cl.Pred(w[0]).Has(p) {
					adds = append(adds, [2]int{p, w[0]})
				}
			})
			cl.Succ(w[1]).ForEach(func(s int) {
				if s != u && s != v && !cl.Succ(w[0]).Has(s) {
					adds = append(adds, [2]int{w[0], s})
				}
			})
		}
	} else {
		cl.Pred(u).ForEach(func(p int) {
			cl.Succ(u).ForEach(func(s int) {
				if p != u && s != u && !(p == SourceID && s == SinkID) && !g.HasEdge(p, s) {
					adds = append(adds, [2]int{p, s})
				}
			})
		})
	}
	for _, e := range adds {
		g.AddEdgeSupport(e[0], e[1], 0)
	}
	return len(adds) > 0
}

// dropWeakest removes the lowest-support edge and prunes the nodes left
// without an incoming or outgoing edge, as iDTD's noise handling does.
func dropWeakest(g *GFA) bool {
	edges := g.Edges()
	if len(edges) == 0 {
		return false
	}
	best := edges[0]
	for _, e := range edges {
		if g.EdgeSupport(e[0], e[1]) < g.EdgeSupport(best[0], best[1]) {
			best = e
		}
	}
	g.RemoveEdge(best[0], best[1])
	for pruned := true; pruned; {
		pruned = false
		for _, id := range g.Nodes() {
			if g.InDegree(id) == 0 || g.OutDegree(id) == 0 {
				g.RemoveNode(id)
				pruned = true
			}
		}
	}
	return true
}

// TestClosureOracle holds Closure to the oracle after every rule
// application, repair and noise drop: on the automata of Figures 1 and 2,
// on SOAs of random SOREs (which saturate without repairs), and on sparse
// samples of random SOREs, whose automata need repairs.
func TestClosureOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	run := func(name string, a *soa.SOA) {
		g := FromSOA(a)
		for round := 0; round < 64; round++ {
			saturateChecked(t, g, name)
			if _, err := g.Result(); err == nil {
				return
			}
			if rng.Intn(4) == 0 && dropWeakest(g) {
				checkClosure(t, g, name+" after a noise drop")
				continue
			}
			if !repairAtRandom(rng, g) && !dropWeakest(g) {
				return
			}
			checkClosure(t, g, name+" after a repair")
		}
	}
	run("figure 1", soa.Infer(sample("bacacdacde", "cbacdbacde", "abccaadcde")))
	run("figure 2", soa.Infer(sample("bacacdacde", "cbacdbacde")))
	alpha := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	// Over 70 symbols, ids pass 64 and closure rows span two words.
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = fmt.Sprintf("s%d", i)
	}
	for i := 0; i < 220; i++ {
		target := regextest.RandomSORE(rng, alpha, 4)
		if i >= 200 {
			target = regextest.RandomSORE(rng, wide, 5)
		}
		run(fmt.Sprintf("SOA of %s", target), soa.FromExpr(target))
		var ws [][]string
		for j := 0; j < 5; j++ {
			ws = append(ws, regextest.Sample(rng, target, 1, 2))
		}
		run(fmt.Sprintf("sparse sample %v of %s", ws, target), soa.Infer(ws))
	}
}

// fuzzGFA decodes bytes into a GFA: the first byte picks up to 12 nodes,
// the next one byte per node picks a plain, nullable, repeatable or starred
// label, and every following byte pair is an edge between the source, the
// nodes and the sink (edges into the source or out of the sink are
// skipped).
func fuzzGFA(data []byte) *GFA {
	g := New()
	if len(data) == 0 {
		return g
	}
	n := int(data[0]) % 13
	data = data[1:]
	for i := 0; i < n; i++ {
		l := regex.Sym(fmt.Sprintf("a%d", i))
		if i < len(data) {
			switch data[i] % 4 {
			case 1:
				l = regex.Opt(l)
			case 2:
				l = regex.Plus(l)
			case 3:
				l = regex.Star(l)
			}
		}
		g.AddNode(l)
	}
	data = data[min(n, len(data)):]
	for ; len(data) >= 2; data = data[2:] {
		from, to := int(data[0])%(n+2), int(data[1])%(n+2)
		if from != SinkID && to != SourceID {
			g.AddEdgeSupport(from, to, 1+int(data[0])>>4)
		}
	}
	return g
}

// FuzzClosureOracle holds Closure to the oracle on small arbitrary GFAs,
// then after every step of their saturation.
func FuzzClosureOracle(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 2, 2, 3, 3, 4, 4, 1, 0, 3})
	f.Add([]byte{5, 1, 1, 0, 3, 2, 0, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 1, 3, 5, 2, 6})
	f.Add([]byte{12, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 2, 2, 7, 7, 13, 13, 1, 5, 9, 9, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGFA(data)
		saturateChecked(t, g, fmt.Sprintf("GFA from %v", data))
	})
}
