package contextual

import (
	"reflect"
	"strings"
	"testing"

	"dtdinfer/internal/dtd"
)

// contextualEquivCorpus is the contextual extraction's differential
// corpus: contexts of several depths, text, attributes, namespaces,
// markup the extraction skips, and inputs xmltok and encoding/xml must
// both reject.
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

// checkContextualEquivalence asserts that the xmltok contextual
// extraction and the encoding/xml oracle agree on one document at context
// widths 0, 1 and 2, uncapped and under tight caps: same acceptance, and
// on acceptance the same per-context state.
func checkContextualEquivalence(t *testing.T, doc string) {
	t.Helper()
	for _, k := range []int{0, 1, 2} {
		for _, caps := range contextualEquivCaps {
			xf := NewExtraction(k)
			errF := xf.AddDocumentOptions(strings.NewReader(doc), &caps)
			xs := NewExtraction(k)
			errS := xs.extractOneStd(strings.NewReader(doc), caps)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("k=%d caps=%+v: acceptance differs for %q:\nfast: %v\nstd:  %v",
					k, caps, doc, errF, errS)
			}
			if errF == nil && !reflect.DeepEqual(xf, xs) {
				t.Fatalf("k=%d caps=%+v: extraction differs for %q:\nfast: %+v\nstd:  %+v",
					k, caps, doc, xf, xs)
			}
		}
	}
}

// Differential test: the contextual extraction loop must behave
// identically over the structure tokenizer and its encoding/xml oracle.
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
