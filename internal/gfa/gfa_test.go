package gfa

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/soa"
)

func split(w string) []string {
	if w == "" {
		return nil
	}
	out := make([]string, len(w))
	for i, r := range w {
		out[i] = string(r)
	}
	return out
}

func sample(ws ...string) [][]string {
	out := make([][]string, len(ws))
	for i, w := range ws {
		out[i] = split(w)
	}
	return out
}

// The running example of the paper: Figure 1's automaton rewrites to
// ((b?(a+c))+d)+e (Figure 3).
func TestRewriteFigure3(t *testing.T) {
	a := soa.Infer(sample("bacacdacde", "cbacdbacde", "abccaadcde"))
	r, err := Rewrite(a)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	want := "((b? (a + c))+ d)+ e"
	if r.String() != want {
		t.Errorf("Rewrite = %q, want %q", r, want)
	}
}

func TestRewriteFailsOnFigure2(t *testing.T) {
	// Without the third sample string the SOA has no equivalent SORE;
	// rewrite must report failure (iDTD's repair rules handle this case).
	a := soa.Infer(sample("bacacdacde", "cbacdbacde"))
	_, err := Rewrite(a)
	if !errors.Is(err, ErrNoSORE) {
		t.Fatalf("Rewrite error = %v, want ErrNoSORE", err)
	}
}

func TestRewriteEmpty(t *testing.T) {
	if _, err := Rewrite(soa.New()); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	// A sample of only empty strings also has no symbols.
	if _, err := Rewrite(soa.Infer([][]string{nil})); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestRewriteSimpleShapes(t *testing.T) {
	tests := []struct {
		sample []string
		want   string
	}{
		{[]string{"a"}, "a"},
		{[]string{"a", "b"}, "a + b"},
		{[]string{"ab"}, "a b"},
		{[]string{"a", "aa"}, "a+"},
		{[]string{"ab", "b"}, "a? b"},
		{[]string{"ab", "a"}, "a b?"},
		{[]string{"ab", "ba", "aa", "bb", "a", "b"}, "(a + b)+"},
		{[]string{"ab", "cb"}, "(a + c) b"},
		{[]string{"abc", "ac"}, "a b? c"},
	}
	for _, tc := range tests {
		r, err := Rewrite(soa.Infer(sample(tc.sample...)))
		if err != nil {
			t.Errorf("Rewrite(%v): %v", tc.sample, err)
			continue
		}
		if r.String() != tc.want {
			t.Errorf("Rewrite(%v) = %q, want %q", tc.sample, r, tc.want)
		}
	}
}

func TestRewriteTopLevelUnion(t *testing.T) {
	// The SORE a+ + (a2? a3+) requires merging a repeatable node with a
	// concatenation node (disjunction case i with a closure-only self edge).
	target := regex.MustParse("a+ + (b? c+)")
	a := soa.FromExpr(target)
	r, err := Rewrite(a)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if !automata.ExprEquivalent(r, target) {
		t.Errorf("Rewrite = %s, not equivalent to %s", r, target)
	}
	if !r.IsSORE() {
		t.Errorf("result %s is not a SORE", r)
	}
}

func TestRewriteStarNormalization(t *testing.T) {
	// Strings witnessing zero-or-more occurrences produce a Kleene star in
	// the post-processed output, never (r+)?.
	r, err := Rewrite(soa.Infer(sample("ab", "aab", "b")))
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if r.String() != "a* b" {
		t.Errorf("Rewrite = %q, want %q", r, "a* b")
	}
}

// Soundness: L(rewrite(A)) = L(A) whenever rewrite succeeds.
func TestRewriteSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := []string{"a", "b", "c", "d", "e"}
	succeeded := 0
	for i := 0; i < 300; i++ {
		var ws [][]string
		for j := 0; j < 1+rng.Intn(8); j++ {
			n := 1 + rng.Intn(8)
			w := make([]string, n)
			for k := range w {
				w[k] = alpha[rng.Intn(len(alpha))]
			}
			ws = append(ws, w)
		}
		a := soa.Infer(ws)
		r, err := Rewrite(a)
		if err != nil {
			continue
		}
		succeeded++
		if !r.IsSORE() {
			t.Fatalf("result %s is not a SORE", r)
		}
		d1 := a.ToDFA()
		d2 := automata.FromExpr(r)
		// The SOA may accept ε (never from these samples — all strings are
		// non-empty) so direct equivalence applies.
		if !automata.Equivalent(d1, d2) {
			t.Fatalf("language changed: sample %v, SOA %s, result %s", ws, a, r)
		}
	}
	if succeeded == 0 {
		t.Fatal("rewrite never succeeded on random samples")
	}
}

// Completeness (Theorem 1 / Claim 1): for every SORE r, rewriting the SOA
// of r yields an equivalent SORE.
func TestRewriteCompletenessOnRandomSOREs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alpha := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 400; i++ {
		target := regextest.RandomSORE(rng, alpha, 3)
		a := soa.FromExpr(target)
		r, err := Rewrite(a)
		if err != nil {
			t.Fatalf("Rewrite failed on SOA of SORE %s: %v", target, err)
		}
		if !r.IsSORE() {
			t.Fatalf("result %s is not a SORE (target %s)", r, target)
		}
		// Rewrite handles ε via the source→sink edge, so the result must be
		// exactly equivalent to the SOA language (= L(target)).
		if !automata.Equivalent(a.ToDFA(), automata.FromExpr(r)) {
			t.Fatalf("Rewrite(%s) = %s: language differs", target, r)
		}
	}
}

func TestRewriteLinearSize(t *testing.T) {
	// The SORE produced for an n-symbol SOA has each symbol exactly once:
	// size linear in the alphabet (contribution 1 of the paper).
	rng := rand.New(rand.NewSource(44))
	alpha := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < 100; i++ {
		target := regextest.RandomSORE(rng, alpha, 4)
		r, err := Rewrite(soa.FromExpr(target))
		if err != nil {
			t.Fatalf("Rewrite failed on %s: %v", target, err)
		}
		for sym, n := range r.SymbolOccurrences() {
			if n != 1 {
				t.Fatalf("symbol %s occurs %d times in %s", sym, n, r)
			}
		}
	}
}

func TestClosure(t *testing.T) {
	g := New()
	a := g.AddNode(regex.MustParse("a"))
	b := g.AddNode(regex.MustParse("b?"))
	c := g.AddNode(regex.MustParse("c+"))
	g.AddEdge(SourceID, a)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, SinkID)
	cl := g.Closure()
	if !cl.Succ(a).Has(b) || !cl.Succ(b).Has(c) {
		t.Error("closure must contain the real edges")
	}
	if !cl.Succ(a).Has(c) {
		t.Error("closure must shortcut through the nullable b?")
	}
	if !cl.Succ(c).Has(c) {
		t.Error("repeatable c+ must have a closure self edge")
	}
	if cl.Succ(a).Has(a) || cl.Succ(b).Has(b) {
		t.Error("non-repeatable labels must not get self edges")
	}
	if cl.Succ(a).Has(SinkID) {
		t.Error("c+ is not nullable; no shortcut a -> sink")
	}
	if cl.Succ(b).Has(SinkID) {
		t.Error("c+ is not nullable; no shortcut b -> sink")
	}
	if !cl.Pred(c).Has(a) || !cl.Pred(b).Has(a) {
		t.Error("predecessor sets must mirror successor sets")
	}
}

func TestIsFinalAndFinalExpr(t *testing.T) {
	g := New()
	r := g.AddNode(regex.MustParse("a"))
	g.AddEdge(SourceID, r)
	g.AddEdge(r, SinkID)
	if !g.IsFinal() {
		t.Fatal("GFA should be final")
	}
	if g.FinalExpr().String() != "a" {
		t.Errorf("FinalExpr = %s", g.FinalExpr())
	}
	g.AddEdge(r, r)
	if g.IsFinal() {
		t.Fatal("self edge must break finality")
	}
}

func TestSupportsCarriedThroughFromSOA(t *testing.T) {
	a := soa.Infer(sample("ab", "ab", "ab"))
	g := FromSOA(a)
	var aID, bID int
	for _, id := range g.Nodes() {
		switch g.Label(id).Name {
		case "a":
			aID = id
		case "b":
			bID = id
		}
	}
	if got := g.EdgeSupport(aID, bID); got != 3 {
		t.Errorf("support(a->b) = %d, want 3", got)
	}
	if got := g.EdgeSupport(SourceID, aID); got != 3 {
		t.Errorf("support(src->a) = %d, want 3", got)
	}
}

func TestStringer(t *testing.T) {
	g := FromSOA(soa.Infer(sample("ab")))
	if g.String() == "" {
		t.Fatal("empty String()")
	}
}

// The exact Figure 3 derivation, step by step: optional on b, disjunction
// on {a, c} (case i, after the optional removed their interconnection),
// then alternating concatenations and self-loops down to the final SORE.
func TestRewriteTraceMatchesFigure3(t *testing.T) {
	a := soa.Infer(sample("bacacdacde", "cbacdbacde", "abccaadcde"))
	g := FromSOA(a)
	g.EnableTrace()
	g.Saturate()
	r, err := g.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != "((b? (a + c))+ d)+ e" {
		t.Fatalf("result = %s", r)
	}
	want := []string{
		"optional: b becomes b?",
		"disjunction (case i): a and c merge into a + c",
		"concatenation: 2 states merge into b? (a + c)",
		"self-loop: b? (a + c) becomes (b? (a + c))+",
		"concatenation: 2 states merge into (b? (a + c))+ d",
		"self-loop: (b? (a + c))+ d becomes ((b? (a + c))+ d)+",
		"concatenation: 2 states merge into ((b? (a + c))+ d)+ e",
	}
	got := g.Trace()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d = %q, want %q", i+1, got[i], want[i])
		}
	}
}
