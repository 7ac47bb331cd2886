package main

import (
	"fmt"
	"math/rand"
	"strings"

	"dtdinfer/internal/corpus"
	"dtdinfer/internal/datagen"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/regex"
)

// The benchmark's own input generators. The program only ever sees the
// bytes these produce; every generator is a pure function of its seed.

// corpus.Protein emits no attributes, so without these no workload would
// time <!ATTLIST> inference or the validator's attribute checks. Every
// ProteinEntry gets a unique identifier and an enumerated kind.
const (
	idAttr   = "id"
	kindAttr = "kind"
)

// entryKinds is the enumerated attribute's value set: at most 8 values
// (the enumeration cap of dtd/attributes.go), each repeated once a corpus
// holds 16 entries.
var entryKinds = []string{"annotated", "complete", "fragment", "merged", "obsolete", "predicted", "preliminary", "reviewed"}

// proteinDocs returns n documents of the Protein DTD of Section 8, as
// corpus.Protein generates them (one ProteinDatabase of one or more
// entries each), with the two attributes added to every ProteinEntry.
// Identifiers are prefix + entry number, so entries of differently
// prefixed calls never share one; kinds cycle through entryKinds.
func proteinDocs(seed int64, n int, prefix string) []string {
	docs := corpus.Protein(seed, n)
	entry := 0
	var b strings.Builder
	for i, d := range docs {
		b.Reset()
		parts := strings.Split(d, "<ProteinEntry>")
		b.WriteString(parts[0])
		for _, p := range parts[1:] {
			fmt.Fprintf(&b, `<ProteinEntry %s="%s%07d" %s="%s">`, idAttr, prefix, entry, kindAttr, entryKinds[entry%len(entryKinds)])
			b.WriteString(p)
			entry++
		}
		docs[i] = b.String()
	}
	return docs
}

// mergeDocs joins every k consecutive documents' entries under one
// ProteinDatabase root, making multi-entry documents.
func mergeDocs(docs []string, k int) []string {
	var out []string
	for len(docs) > 0 {
		group := docs[:min(k, len(docs))]
		docs = docs[len(group):]
		var b strings.Builder
		b.WriteString("<ProteinDatabase>")
		for _, d := range group {
			b.WriteString(strings.TrimSuffix(strings.TrimPrefix(d, "<ProteinDatabase>"), "</ProteinDatabase>"))
		}
		b.WriteString("</ProteinDatabase>")
		out = append(out, b.String())
	}
	return out
}

// wideRow is one content model of the summary corpus with its sample.
type wideRow struct {
	name   string
	sample [][]string
}

// wideRoot is the root element of the summary corpus's documents.
const wideRoot = "wide"

// wideItemsPerDoc is how many row elements one summary document holds.
const wideItemsPerDoc = 200

// wideCorpus generates the summary workload's corpus: one element per
// Table 2 row, with the paper's sample sizes drawn representatively as in
// the Table 2 reproduction, plus the Section 9 XHTML <p> sample (41
// symbols, 30 000 strings, 10 of them carrying a disallowed child). The
// elements are shuffled into documents of wideItemsPerDoc each.
func wideCorpus(seed int64) ([]string, []wideRow) {
	var rows []wideRow
	for i, r := range experiments.Table2 {
		target := regex.MustParse(r.Original)
		rows = append(rows, wideRow{r.Element, representativeSample(target, r.SampleSize, seed+int64(i))})
	}
	p, _ := corpus.XHTMLParagraphs(seed, 30000, 10)
	rows = append(rows, wideRow{"p", p})

	type item struct{ row, str int }
	var items []item
	for r, row := range rows {
		for s := range row.sample {
			items = append(items, item{r, s})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	var docs []string
	var b strings.Builder
	for start := 0; start < len(items); start += wideItemsPerDoc {
		b.Reset()
		b.WriteString("<" + wideRoot + ">")
		for _, it := range items[start:min(start+wideItemsPerDoc, len(items))] {
			name := rows[it.row].name
			b.WriteString("<" + name + ">")
			for _, c := range rows[it.row].sample[it.str] {
				b.WriteString("<" + c + "/>")
			}
			b.WriteString("</" + name + ">")
		}
		b.WriteString("</" + wideRoot + ">")
		docs = append(docs, b.String())
	}
	return docs, rows
}

// representativeSample draws size strings of L(target) whose 2T-INF
// automaton is the target's whenever the edge cover fits in size — how
// the paper generated its Table 2 data.
func representativeSample(target *regex.Expr, size int, seed int64) [][]string {
	s := datagen.NewSampler(seed)
	if len(datagen.EdgeCoverSample(target)) <= size {
		return datagen.RepresentativeSample(s, target, size)
	}
	return s.SampleN(target, size)
}

// totalBytes sums the documents' sizes.
func totalBytes(docs []string) int64 {
	var n int64
	for _, d := range docs {
		n += int64(len(d))
	}
	return n
}
