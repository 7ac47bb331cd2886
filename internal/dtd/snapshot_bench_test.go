package dtd_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/regex"
)

// wideSummary returns the corpus summary of one element per Table 2 row,
// sampled at the paper's sizes, plus the §9 XHTML <p> sample (41
// symbols, 30 000 strings, 10 noisy), shuffled into documents of 200
// elements: the draw the repository benchmark's summary workload loads,
// built the same way from the same seed.
func wideSummary(tb testing.TB, seed int64) []byte {
	tb.Helper()
	type row struct {
		name   string
		sample [][]string
	}
	var rows []row
	for i, r := range experiments.Table2 {
		target := regex.MustParse(r.Original)
		s := datagen.NewSampler(seed + int64(i))
		if len(datagen.EdgeCoverSample(target)) <= r.SampleSize {
			rows = append(rows, row{r.Element, datagen.RepresentativeSample(s, target, r.SampleSize)})
		} else {
			rows = append(rows, row{r.Element, s.SampleN(target, r.SampleSize)})
		}
	}
	p, _ := corpus.XHTMLParagraphs(seed, 30000, 10)
	rows = append(rows, row{"p", p})

	type item struct{ row, str int }
	var items []item
	for r, row := range rows {
		for s := range row.sample {
			items = append(items, item{r, s})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	x := dtd.NewExtraction()
	var b strings.Builder
	for start := 0; start < len(items); start += 200 {
		b.Reset()
		b.WriteString("<wide>")
		for _, it := range items[start:min(start+200, len(items))] {
			name := rows[it.row].name
			b.WriteString("<" + name + ">")
			for _, c := range rows[it.row].sample[it.str] {
				b.WriteString("<" + c + "/>")
			}
			b.WriteString("</" + name + ">")
		}
		b.WriteString("</wide>")
		if err := x.AddDocument(strings.NewReader(b.String())); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := x.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadSnapshot times the summary decoder alone, in MB/s of
// summary and allocations per load, on the draw the summary workload
// loads for seed 1.
func BenchmarkReadSnapshot(b *testing.B) {
	data := wideSummary(b, 4)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtd.ReadSnapshot(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
