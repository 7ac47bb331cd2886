package soa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
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

// paperSample is W from Section 4 / Figure 1.
var paperSample = sample("bacacdacde", "cbacdbacde", "abccaadcde")

func TestInferSection4Example(t *testing.T) {
	a := Infer(paperSample)
	wantI := []string{"a", "b", "c"}
	if got := a.InitialSymbols(); !eq(got, wantI) {
		t.Errorf("I = %v, want %v", got, wantI)
	}
	if got := a.FinalSymbols(); !eq(got, []string{"e"}) {
		t.Errorf("F = %v, want [e]", got)
	}
	want2grams := []string{"aa", "ad", "ac", "ab", "ba", "bc", "cb", "cc", "ca", "cd", "da", "db", "dc", "de"}
	for _, g := range want2grams {
		if !a.HasEdge(string(g[0]), string(g[1])) {
			t.Errorf("missing 2-gram edge %s", g)
		}
	}
	inner := 0
	for _, e := range a.Edges() {
		if e[0] != Source && e[1] != Sink {
			inner++
		}
	}
	if inner != len(want2grams) {
		t.Errorf("got %d inner edges, want %d", inner, len(want2grams))
	}
}

func TestInferFigure2Subautomaton(t *testing.T) {
	// With the third string missing, the SOA is a strict subautomaton.
	full := Infer(paperSample)
	part := Infer(paperSample[:2])
	for _, e := range part.Edges() {
		if !full.HasEdge(e[0], e[1]) {
			t.Errorf("partial SOA has edge %v missing from the full SOA", e)
		}
	}
	for _, g := range []string{"aa", "ab", "ad", "bc", "cc", "dc"} {
		if part.HasEdge(string(g[0]), string(g[1])) {
			t.Errorf("partial SOA should miss edge %s", g)
		}
	}
	if part.HasEdge(Source, "a") {
		t.Error("partial SOA should miss initial a")
	}
	if full.Equal(part) {
		t.Error("full and partial SOA must differ")
	}
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMemberMatchesDefinition(t *testing.T) {
	a := Infer(paperSample)
	for _, w := range paperSample {
		if !a.Member(w) {
			t.Errorf("sample string %v rejected", w)
		}
	}
	// Strings in the 2-testable closure but not in the sample.
	for _, w := range sample("ade", "aade", "cde", "bacde") {
		if !a.Member(w) {
			t.Errorf("2-testable closure string %v rejected", w)
		}
	}
	for _, w := range sample("", "e", "ead", "ada", "dd", "abe") {
		if a.Member(w) {
			t.Errorf("string %v should be rejected", w)
		}
	}
}

func TestEmptyStringHandling(t *testing.T) {
	a := Infer([][]string{nil, {"a"}})
	if !a.AcceptsEmpty() || !a.Member(nil) {
		t.Error("empty string should be accepted when present in sample")
	}
	b := Infer([][]string{{"a"}})
	if b.AcceptsEmpty() {
		t.Error("empty string must not be accepted")
	}
}

func TestFromExprMatchesInferredOnRepresentativeSample(t *testing.T) {
	// For the paper's running SORE, the three sample strings are
	// representative: the inferred SOA equals the expression's SOA.
	r := regex.MustParse("((b?(a + c))+d)+e")
	a := Infer(paperSample)
	if !a.Equal(FromExpr(r)) {
		t.Errorf("SOA(W) != SOA(r):\n%s\n%s", a, FromExpr(r))
	}
	if !a.Representative(r) {
		t.Error("Representative should hold")
	}
	if Infer(paperSample[:2]).Representative(r) {
		t.Error("two strings are not representative")
	}
}

func TestProposition1UniqueSOAPerSORE(t *testing.T) {
	// Equivalent SOREs have equal SOAs (Proposition 1's uniqueness).
	pairs := [][2]string{
		{"(a+)?", "a*"},
		{"((b?(a + c))+d)+e", "((b?(a + c)+)+d)+e"},
		{"a? b", "b + a b"}, // second is not a SORE; skip below
	}
	for _, p := range pairs[:2] {
		a1 := FromExpr(regex.MustParse(p[0]))
		a2 := FromExpr(regex.MustParse(p[1]))
		if !a1.Equal(a2) {
			t.Errorf("SOAs of equivalent SOREs differ: %s vs %s", p[0], p[1])
		}
	}
}

func TestFromExprPanicsOnNonSORE(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromExpr(regex.MustParse("a (a + b)*"))
}

func TestSOALanguageContainsSampleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := []string{"a", "b", "c", "d"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var ws [][]string
		for i := 0; i < 1+r.Intn(10); i++ {
			ws = append(ws, randomWord(r, alpha, 8))
		}
		a := Infer(ws)
		for _, w := range ws {
			if !a.Member(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestSOAOfSOREAcceptsSampledStrings(t *testing.T) {
	// L(r) ⊆ L(SOA(r)): every string drawn from a SORE is accepted by its SOA.
	rng := rand.New(rand.NewSource(8))
	alpha := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 150; i++ {
		r := regextest.RandomSORE(rng, alpha, 3)
		a := FromExpr(r)
		for j := 0; j < 20; j++ {
			w := regextest.Sample(rng, r, 1, 2)
			if !a.Member(w) {
				t.Fatalf("SOA(%s) rejects sampled %v", r, w)
			}
		}
	}
}

func TestSOAEqualsGlushkovLanguageForSORE(t *testing.T) {
	// For a SORE, L(SOA(r)) = L(r) exactly (Proposition 1): cross-check
	// membership against the Glushkov automaton on random words.
	rng := rand.New(rand.NewSource(9))
	alpha := []string{"a", "b", "c", "d"}
	for i := 0; i < 120; i++ {
		r := regextest.RandomSORE(rng, alpha, 3)
		a := FromExpr(r)
		g := automata.Glushkov(r)
		for j := 0; j < 60; j++ {
			w := randomWord(rng, alpha, 6)
			if a.Member(w) != g.Member(w) {
				t.Fatalf("SOA and Glushkov disagree on %v for %s", w, r)
			}
		}
	}
}

func randomWord(rng *rand.Rand, alpha []string, maxLen int) []string {
	n := rng.Intn(maxLen + 1)
	w := make([]string, n)
	for i := range w {
		w[i] = alpha[rng.Intn(len(alpha))]
	}
	return w
}

func TestMergeEqualsBatch(t *testing.T) {
	// Incremental recomputation (Section 9): inferring on W1 ∪ W2 equals
	// inferring separately and merging, including supports.
	w1 := sample("bacacdacde", "cbacdbacde")
	w2 := sample("abccaadcde", "ade")
	batch := Infer(append(append([][]string{}, w1...), w2...))
	inc := Infer(w1)
	inc.Merge(Infer(w2))
	if !batch.Equal(inc) {
		t.Fatal("merged SOA differs from batch SOA")
	}
	if batch.Total() != inc.Total() {
		t.Errorf("totals differ: %d vs %d", batch.Total(), inc.Total())
	}
	for _, e := range batch.Edges() {
		if batch.EdgeSupport(e[0], e[1]) != inc.EdgeSupport(e[0], e[1]) {
			t.Errorf("support differs on %v", e)
		}
	}
}

func TestSupports(t *testing.T) {
	a := Infer(sample("aab", "ab", "b"))
	if got := a.SymbolSupport("a"); got != 2 {
		t.Errorf("SymbolSupport(a) = %d, want 2", got)
	}
	if got := a.SymbolSupport("b"); got != 3 {
		t.Errorf("SymbolSupport(b) = %d, want 3", got)
	}
	if got := a.EdgeSupport("a", "b"); got != 2 {
		t.Errorf("EdgeSupport(ab) = %d, want 2", got)
	}
	if got := a.EdgeSupport("a", "a"); got != 1 {
		t.Errorf("EdgeSupport(aa) = %d, want 1", got)
	}
	if got := a.EdgeSupport(Source, "b"); got != 1 {
		t.Errorf("EdgeSupport(⊢b) = %d, want 1", got)
	}
}

func TestPruneSupportRemovesNoise(t *testing.T) {
	// A hundred clean strings plus one noisy one containing symbol x.
	var ws [][]string
	for i := 0; i < 100; i++ {
		ws = append(ws, split("ab"))
	}
	ws = append(ws, split("axb"))
	a := Infer(ws)
	if !a.HasEdge("a", "x") {
		t.Fatal("noise edge should exist before pruning")
	}
	a.PruneSupport(10, 10)
	if a.HasEdge("a", "x") || a.HasEdge("x", "b") || a.SymbolSupport("x") != 0 {
		t.Error("noise symbol x should be pruned")
	}
	if !a.HasEdge("a", "b") || !a.HasEdge(Source, "a") || !a.HasEdge("b", Sink) {
		t.Error("clean structure must survive pruning")
	}
	// Pruning x also removed the a->x 2-gram; ab remains the only word.
	if !a.Member(split("ab")) || a.Member(split("axb")) {
		t.Error("membership after pruning is wrong")
	}
}

func TestAddRemoveEdge(t *testing.T) {
	a := New()
	a.AddEdge(Source, "a")
	a.AddEdge("a", "b")
	a.AddEdge("b", Sink)
	if !a.Member(split("ab")) {
		t.Error("constructed automaton should accept ab")
	}
	a.RemoveEdge("a", "b")
	if a.Member(split("ab")) {
		t.Error("edge removal should reject ab")
	}
}

func TestReservedSymbolsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on reserved symbol")
		}
	}()
	New().AddString([]string{Source})
}

func TestStringer(t *testing.T) {
	a := Infer(sample("ab"))
	s := a.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestToNFAAndToDFA(t *testing.T) {
	a := Infer(paperSample)
	nfa := a.ToNFA()
	dfa := a.ToDFA()
	for _, w := range append(paperSample, sample("ade", "cde")...) {
		if !nfa.Member(w) || !dfa.Member(w) {
			t.Errorf("automata reject member %v", w)
		}
	}
	for _, w := range sample("", "e", "abe") {
		if nfa.Member(w) || dfa.Member(w) {
			t.Errorf("automata accept non-member %v", w)
		}
	}
	// ε-acceptance carries over.
	b := Infer([][]string{nil, {"a"}})
	if !b.ToNFA().Member(nil) || !b.ToDFA().Member(nil) {
		t.Error("ε lost in automata conversion")
	}
}

func TestSymbolsAndEdgeCount(t *testing.T) {
	a := Infer(sample("ab", "ba"))
	syms := a.Symbols()
	if len(syms) != 2 || syms[0] != "a" || syms[1] != "b" {
		t.Errorf("Symbols = %v", syms)
	}
	// Edges: src->a, src->b, a->b, b->a, a->snk, b->snk.
	if got := a.EdgeCount(); got != 6 {
		t.Errorf("EdgeCount = %d, want 6", got)
	}
}

func TestEqualDifferences(t *testing.T) {
	a := Infer(sample("ab"))
	b := Infer(sample("ab", ""))
	if a.Equal(b) {
		t.Error("ε-acceptance must distinguish")
	}
	c := Infer(sample("ac"))
	if a.Equal(c) {
		t.Error("different alphabets must distinguish")
	}
	d := Infer(sample("ab", "aab"))
	if a.Equal(d) {
		t.Error("different edges must distinguish")
	}
}
