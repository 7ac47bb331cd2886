package gfa

import (
	"math/bits"

	"dtdinfer/internal/intern"
)

// Closure is the ε-closure G* of a GFA: its edge set E* contains (i) a self
// edge (r, r) for every node whose label is repeatable (r+ or r*, i.e. the
// paper's s+ and (s+)? forms), and (ii) an edge (r, r') whenever there is a
// path from r to r' in G passing only through intermediate nodes with
// nullable labels. E ⊆ E* since a single edge is such a path with no
// intermediates.
//
// Its rows are bitsets indexed by node id, cut from one backing array that
// the GFA owns and refills on every call to Closure: a Closure is valid
// until its GFA next changes. Pred rows are the transpose of Succ rows.
type Closure struct {
	succ, pred []intern.Bitset
	backing    []uint64
}

// Succ returns the successor set of u in G*.
func (c *Closure) Succ(u int) intern.Bitset { return c.succ[u] }

// Pred returns the predecessor set of u in G*.
func (c *Closure) Pred(u int) intern.Bitset { return c.pred[u] }

// Diff compares the predecessor sets of u and v in G* (or, with succ set,
// their successor sets) with u and v left out: it reports whether they
// share a member and counts the members each has that the other lacks.
func (c *Closure) Diff(u, v int, succ bool) (shared bool, onlyU, onlyV int) {
	a, b := c.pred[u], c.pred[v]
	if succ {
		a, b = c.succ[u], c.succ[v]
	}
	for w := range a {
		mask := ^uint64(0)
		for _, x := range [2]int{u, v} {
			if x>>6 == w {
				mask &^= 1 << uint(x&63)
			}
		}
		x, y := a[w]&mask, b[w]&mask
		shared = shared || x&y != 0
		onlyU += bits.OnesCount64(x &^ y)
		onlyV += bits.OnesCount64(y &^ x)
	}
	return shared, onlyU, onlyV
}

// Closure computes the ε-closure of the GFA into buffers it reuses. Each
// successor row starts as the node's real successors and absorbs the real
// successors of every nullable node it reaches, a word at a time;
// predecessor rows are expanded the same way over real predecessors. Every
// rule changes the graph, so the closure is rebuilt, not cached; once the
// buffers are sized a rebuild allocates nothing.
func (g *GFA) Closure() *Closure {
	c := &g.cl
	n, words := len(g.succ), (len(g.succ)+63)>>6
	if len(c.succ) != n {
		c.backing = make([]uint64, (2*n+1)*words)
		c.succ, c.pred = make([]intern.Bitset, n), make([]intern.Bitset, n)
		for i := range c.succ {
			c.succ[i], c.pred[i] = c.backing[i*words:(i+1)*words], c.backing[(n+i)*words:(n+i+1)*words]
		}
	}
	clear(c.backing[:2*n*words])
	// expanded marks the nullable nodes whose edges a row has taken.
	expanded := intern.Bitset(c.backing[2*n*words:])
	g.expand(c.succ, g.succ, expanded)
	g.expand(c.pred, g.pred, expanded)
	g.repeatable.ForEach(func(u int) {
		c.succ[u].Set(u)
		c.pred[u].Set(u)
	})
	return c
}

// expand fills dst[u] with the rows[u]-neighbours of u and, transitively,
// the rows of every nullable neighbour reached. Rows are filled in id
// order, so a nullable neighbour x < u already has its final dst[x], which
// holds the expansion of every nullable node inside it: one OR takes it
// all. Removed nodes keep the zero rows the buffers were cleared to.
func (g *GFA) expand(dst, rows []intern.Bitset, expanded intern.Bitset) {
	for u := 0; u < g.next; u++ {
		if u != SourceID && u != SinkID && !g.live.Has(u) {
			continue
		}
		row := dst[u]
		for w := range row {
			row[w] = word(rows[u], w)
			expanded[w] = 0
		}
		for w := 0; w < len(row); {
			m := row[w] & word(g.nullable, w) &^ expanded[w]
			if m == 0 {
				w++
				continue
			}
			expanded[w] |= m & -m
			if x := w<<6 + bits.TrailingZeros64(m); x < u {
				for i, xw := range dst[x] {
					row[i] |= xw
					expanded[i] |= xw & word(g.nullable, i)
				}
			} else {
				for i, xw := range rows[x] {
					row[i] |= xw
				}
			}
			w = 0 // the row may have grown in an earlier word
		}
	}
}

// word returns the w-th word of b, zero past its end.
func word(b intern.Bitset, w int) uint64 {
	if w < len(b) {
		return b[w]
	}
	return 0
}
