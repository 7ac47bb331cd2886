package idtd_test

import (
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/soa"
)

// BenchmarkFromSOA times the rewrite with repairs alone, on the three
// elements that dominate the summary workload of perfbench: Table 2's
// example3 (45 symbols) and example4 (61), and the XHTML <p> sample (46).
// Each is drawn as that workload's first draw at seed 1 draws it, and its
// SOA is built outside the timer.
func BenchmarkFromSOA(b *testing.B) {
	const draw = 4 // perfbench --seed 1, first of its four draws
	p, _ := corpus.XHTMLParagraphs(draw, 30000, 10)
	cases := []struct {
		name string
		a    *soa.SOA
	}{
		{"example3", table2SOA(2, draw+2)},
		{"example4", table2SOA(3, draw+3)},
		{"xhtml-p", soa.InferSample(sample.FromStrings(p))},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := idtd.FromSOA(c.a, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
