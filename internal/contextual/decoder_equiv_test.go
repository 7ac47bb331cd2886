package contextual

import (
	"fmt"
	"strings"
	"testing"

	"dtdinfer/internal/dtd"
)

// Contextual ingestion is dtd ingestion keyed by context, and package
// dtd's encoding/xml oracle holds it to an independent decode loop at
// depths 0, 1 and 2. The tests here hold every depth to plain, name-keyed
// ingestion instead: contexts only refine names. They keep the names they
// had when contextual ingestion ran a decode loop of its own, checked
// against an encoding/xml twin.

// contextualEquivCorpus is the contextual tests' differential corpus:
// contexts of several depths, text, attributes, namespaces, markup the
// extraction skips, and inputs the decoder must reject.
var contextualEquivCorpus = []string{
	`<a/>`,
	`<db><rec id="a1"><name>n1</name></rec><rec><name/></rec></db>`,
	`<book><name>t</name><author><name>a</name></author></book>`,
	`<a>t1<b/>t2<b/>t3</a>`,
	`<a><![CDATA[raw]]></a>`,
	"<a>\n\t\n</a>",
	`<a xmlns:x="u" x:y="1"><x:b/></a>`,
	`<!DOCTYPE r [<!ELEMENT r (a)>]><r><a/></r>`,
	`<?pi data?><a/><!--c-->`,
	`<日本語><子>値</子></日本語>`,
	strings.Repeat("<d>", 30) + "x" + strings.Repeat("</d>", 30),
	// Rejected inputs.
	``,
	`<a>`,
	`<a><b></a></b>`,
	`<a>&undefined;</a>`,
	"<a>\xff\xfe</a>",
}

// contextualEquivCaps are the caps each document runs under: none, and
// caps tight enough that the corpus trips every one of them.
var contextualEquivCaps = []dtd.IngestOptions{
	{},
	{MaxDepth: 10, MaxTokens: 64, MaxNames: 4, MaxBytes: 1 << 10},
}

// projectNames renders an extraction's observations per element name,
// folding every context onto its element: sequences with their
// multiplicities, text flags, roots and the document count.
func projectNames(x *dtd.Extraction) string {
	seqs := map[string]map[string]int{}
	text := map[string]bool{}
	for c, s := range x.Sequences {
		e := Context(c).Element()
		if seqs[e] == nil {
			seqs[e] = map[string]int{}
		}
		for i := 0; i < s.Unique(); i++ {
			seqs[e][strings.Join(s.SeqStrings(i), ",")] += s.Count(i)
		}
	}
	for c, has := range x.HasText {
		text[Context(c).Element()] = text[Context(c).Element()] || has
	}
	return fmt.Sprint(seqs, text, x.Roots, x.Documents)
}

// checkContextualEquivalence asserts that ingestion at context depths 1
// and 2 agrees with plain ingestion on one document, uncapped and under
// tight caps: the same error (so a cap fires at the same offset, MaxNames
// counting names rather than contexts), and on acceptance the same
// observations once contexts fold onto their element names.
func checkContextualEquivalence(t *testing.T, doc string) {
	t.Helper()
	for _, caps := range contextualEquivCaps {
		plain := dtd.NewExtraction()
		errP := plain.AddDocumentOptions(strings.NewReader(doc), &caps)
		for _, k := range []int{1, 2} {
			x := dtd.NewContextExtraction(k)
			err := x.AddDocumentOptions(strings.NewReader(doc), &caps)
			if fmt.Sprint(err) != fmt.Sprint(errP) {
				t.Fatalf("k=%d caps=%+v: outcome differs for %q:\ncontext: %v\nplain:   %v",
					k, caps, doc, err, errP)
			}
			if err == nil {
				if got, want := projectNames(x), projectNames(plain); got != want {
					t.Fatalf("k=%d caps=%+v: observations differ for %q:\ncontext: %s\nplain:   %s",
						k, caps, doc, got, want)
				}
			}
		}
	}
}

func TestContextualDecoderEquivalence(t *testing.T) {
	for _, doc := range contextualEquivCorpus {
		checkContextualEquivalence(t, doc)
	}
}

// FuzzContextualDecoderEquivalence is TestContextualDecoderEquivalence
// over arbitrary inputs, seeded with the contextual tests' documents. Run
// with -fuzz=FuzzContextualDecoderEquivalence; as a unit test it replays
// the seeds.
func FuzzContextualDecoderEquivalence(f *testing.F) {
	seeds := append(append([]string(nil), contextualEquivCorpus...), oracleDocs...)
	for _, c := range contextCases {
		seeds = append(seeds, c.doc)
	}
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkContextualEquivalence(t, input)
	})
}
