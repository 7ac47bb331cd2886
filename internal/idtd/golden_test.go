package idtd_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/gfa"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/regextest"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
)

// goldenFile pins iDTD's full output — expression, repair statistics and
// the rewrite trace — on a fixed input set. Rules break ties by node id,
// so a change to how the automaton stores or scans its nodes can change
// a result without breaking a language-level test; this file catches it.
const goldenFile = "testdata/golden.txt"

type goldenInput struct {
	name string
	a    *soa.SOA
	opts idtd.Options
}

// goldenInputs returns the pinned inputs: the Table 2 rows at the paper's
// sample sizes (drawn as experiments.RunTable2(1) draws them), the XHTML
// <p> sample with and without noise handling, and 200 sparse samples of
// random SOREs that need repairs, under each repair policy.
func goldenInputs() []goldenInput {
	var in []goldenInput
	for i, r := range experiments.Table2 {
		in = append(in, goldenInput{"table2/" + r.Element, table2SOA(i, 101+int64(i)), idtd.Options{}})
	}
	p, _ := corpus.XHTMLParagraphs(1, 30000, 10)
	pa := soa.InferSample(sample.FromStrings(p))
	in = append(in,
		goldenInput{"xhtml-p/noise0", pa, idtd.Options{}},
		goldenInput{"xhtml-p/noise5", pa, idtd.Options{NoiseThreshold: 5}})
	rng := rand.New(rand.NewSource(18))
	alpha := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	policies := []struct {
		name   string
		policy idtd.RepairPolicy
	}{
		{"balanced", idtd.PolicyBalanced},
		{"disjunction-first", idtd.PolicyDisjunctionFirst},
		{"optional-first", idtd.PolicyOptionalFirst},
	}
	// Keep only samples whose automaton rewrite alone cannot turn into a
	// SORE: the ones that exercise the repair planners.
	for kept := 0; kept < 200; {
		target := regextest.RandomSORE(rng, alpha, 4)
		var ws [][]string
		for j := 0; j < 5; j++ {
			ws = append(ws, regextest.Sample(rng, target, 1, 2))
		}
		a := soa.InferSample(sample.FromStrings(ws))
		if _, err := gfa.Rewrite(a); !errors.Is(err, gfa.ErrNoSORE) {
			continue
		}
		for _, p := range policies {
			in = append(in, goldenInput{fmt.Sprintf("sparse/%03d/%s", kept, p.name), a, idtd.Options{Policy: p.policy}})
		}
		kept++
	}
	return in
}

// table2SOA draws the sample of Table 2's i-th row with the given seed,
// representatively when the row's edge cover fits in its sample size, as
// the experiments and perfbench draw it, and returns its 2T-INF automaton.
func table2SOA(i int, seed int64) *soa.SOA {
	r := experiments.Table2[i]
	target := regex.MustParse(r.Original)
	s := datagen.NewSampler(seed)
	var ws [][]string
	if len(datagen.EdgeCoverSample(target)) <= r.SampleSize {
		ws = datagen.RepresentativeSample(s, target, r.SampleSize)
	} else {
		ws = s.SampleN(target, r.SampleSize)
	}
	return soa.InferSample(sample.FromStrings(ws))
}

// goldenRecord renders one input's result as it appears in goldenFile.
func goldenRecord(t testing.TB, in goldenInput) string {
	opts := in.opts
	opts.Trace = true
	res, err := idtd.FromSOA(in.a, &opts)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n%s\nrepairs=%d maxk=%d fallback=%t dropped=%d\n",
		in.name, res.Expr, res.Repairs, res.MaxKUsed, res.Fallback, res.DroppedEdges)
	for _, step := range res.Trace {
		fmt.Fprintf(&b, "  %s\n", step)
	}
	return b.String()
}

// goldenText renders every pinned input, in order.
func goldenText(t testing.TB) string {
	var b strings.Builder
	for _, in := range goldenInputs() {
		b.WriteString(goldenRecord(t, in))
	}
	return b.String()
}

// TestGoldenOutput recomputes every pinned input and compares it with the
// record written before the automaton moved to dense storage.
func TestGoldenOutput(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenText(t)
	if got == string(data) {
		return
	}
	g, w := strings.Split(got, "\n== "), strings.Split(string(data), "\n== ")
	if len(g) != len(w) {
		t.Errorf("%d records, %s has %d", len(g), goldenFile, len(w))
	}
	diffs := 0
	for i := 0; i < len(g) && i < len(w) && diffs < 5; i++ {
		if g[i] != w[i] {
			diffs++
			t.Errorf("record %d differs:\ngot:\n%s\nwant:\n%s", i, g[i], w[i])
		}
	}
}
