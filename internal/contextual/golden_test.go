package contextual

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"dtdinfer/internal/core"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
)

// goldenSchema infers the contextual schema of docs at depth k with the
// given engine: a context extraction, the DTD path's inference, FromDTD.
func goldenSchema(docs []string, k int, algo core.Algorithm) (*Schema, error) {
	x := dtd.NewContextExtraction(k)
	for _, doc := range docs {
		if err := x.AddDocument(strings.NewReader(doc)); err != nil {
			return nil, err
		}
	}
	d, err := core.InferDTDFromExtraction(x, algo, nil)
	if err != nil {
		return nil, err
	}
	return FromDTD(d, k), nil
}

// TestContextualGolden holds String, ToXSD and ToDTD of every golden
// corpus, depth and engine byte-identical to the golden file.
func TestContextualGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(goldenSchema)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "=== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("golden mismatch in %q at line %d:\ngot:  %s\nwant: %s", section, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden mismatch: got %d lines, want %d", len(gl), len(wl))
}

// TestContextualKZeroEqualsDTDPath: at depth 0 every element has one
// context, so the flattened contextual schema is the DTD itself.
func TestContextualKZeroEqualsDTDPath(t *testing.T) {
	docs := corpus.Protein(1, 150)
	for _, algo := range []core.Algorithm{core.IDTD, core.CRX} {
		s, err := goldenSchema(docs, 0, algo)
		if err != nil {
			t.Fatal(err)
		}
		readers := make([]io.Reader, len(docs))
		for i, doc := range docs {
			readers[i] = strings.NewReader(doc)
		}
		d, err := core.InferDTD(readers, algo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.ToDTD().String(), d.String(); got != want {
			t.Errorf("%s: k=0 contextual DTD differs from the DTD path:\ngot:\n%s\nwant:\n%s", algo, got, want)
		}
	}
}

// goldenPath is the golden file: contextual schemas rendered by the
// inference path that kept per-context verbatim string samples, before
// contexts became an ingestion key of dtd.Extraction.
const goldenPath = "testdata/golden.txt"

// goldenCorpus is one corpus of the golden file.
type goldenCorpus struct {
	name string
	docs []string
}

// verticalDocs are examples/vertical's documents.
var verticalDocs = []string{
	`<store>
	  <book><name><title>SICP</title><sub>2nd ed</sub></name>
	        <author><name><first>Hal</first><last>Abelson</last></name></author></book>
	</store>`,
	`<store>
	  <book><name><title>TAPL</title></name>
	        <author><name><first>Benjamin</first><last>Pierce</last></name></author></book>
	</store>`,
}

// goldenCorpora are the contextual tests' documents, Protein and
// examples/vertical's documents.
func goldenCorpora() []goldenCorpus {
	return []goldenCorpus{
		{"store", []string{storeDoc}},
		{"lib", []string{`<lib>
	  <book><name><title>T</title></name></book>
	  <journal><name><title>J</title></name></journal>
	</lib>`}},
		{"lossless", []string{`<r><a><x>1</x></a><a><x>2</x><x>3</x></a></r>`}},
		{"deep", []string{`<r>
	  <u><w><q>1</q></w></u>
	  <v><w><q>2</q><q>3</q></w></v>
	  <u><w><q>4</q></w></u>
	  <v><w><q>5</q><q>6</q></w></v>
	</r>`}},
		{"refine", []string{`<r>
	  <u><w><q><z>x</z></q></w></u>
	  <v><w><q/></w></v>
	  <u><w><q><z>y</z></q></w></u>
	  <v><w><q/></w></v>
	</r>`}},
		{"mixed", []string{`<r><p>text <b>bold</b> more</p><p>plain</p><hr/></r>`}},
		{"mixedmerge", []string{`<r><book><name>t <em>x</em></name></book><author><name>plain</name></author></r>`}},
		{"mixedkeep", []string{`<s><b><name><t>x</t></name></b><a><name>y</name></a></s>`}},
		{"oracle", oracleDocs},
		{"protein", corpus.Protein(1, 150)},
		{"vertical", verticalDocs},
	}
}

// goldenEngines are the engines the golden file covers; full engines
// are recorded as text, the others by the SHA-256 of each rendering.
var goldenEngines = []struct {
	algo core.Algorithm
	full bool
}{
	{core.IDTD, true},
	{core.CRX, true},
	{core.XTRACT, false},
	{core.TrangLike, false},
	{core.StateElim, false},
}

// renderGolden renders String, ToXSD and ToDTD of every golden corpus at
// k = 0, 1 and 2 for every golden engine, inferring through infer.
func renderGolden(infer func(docs []string, k int, algo core.Algorithm) (*Schema, error)) string {
	var b strings.Builder
	for _, c := range goldenCorpora() {
		for k := 0; k <= 2; k++ {
			for _, e := range goldenEngines {
				fmt.Fprintf(&b, "=== %s k=%d %s\n", c.name, k, e.algo)
				s, err := infer(c.docs, k, e.algo)
				if err != nil {
					b.WriteString("error\n")
					continue
				}
				for _, r := range []struct{ label, text string }{
					{"string", s.String()},
					{"xsd", s.ToXSD()},
					{"dtd", s.ToDTD().String()},
				} {
					if e.full {
						fmt.Fprintf(&b, "--- %s\n%s\n", r.label, r.text)
					} else {
						fmt.Fprintf(&b, "--- %s sha256 %x\n", r.label, sha256.Sum256([]byte(r.text)))
					}
				}
			}
		}
	}
	return b.String()
}
