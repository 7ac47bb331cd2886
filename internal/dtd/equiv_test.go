package dtd

import (
	"context"
	"strings"
	"testing"
)

// Differential testing of ingestion against its encoding/xml oracle
// (ingest_oracle_test.go): the structure tokenizer (internal/xmltok) must
// accept exactly the documents encoding/xml accepts and produce
// byte-identical extraction state on every accepted one.
// decoderEquivCorpus collects the structures the extraction layer cares
// about plus the XML corners where the two decoders could plausibly
// diverge.
var decoderEquivCorpus = []string{
	// Plain structure.
	`<a/>`,
	`<a></a>`,
	`<db><rec id="a1" kind="x"><name>n1</name></rec></db>`,
	`<r><a/><b/><a/><a/><b/></r>`,
	`<a><b><c><d/></c></b><b/></a>`,
	// Multiple roots (encoding/xml accepts them) and top-level text.
	`<a/><b/>`,
	` <a/> `,
	`<?xml version="1.0"?><!DOCTYPE r><r/>`,
	// Attributes: duplicates, entities, character references, newlines.
	`<a x="1" y="2"/>`,
	`<a x="1" x="2" x="1"/>`,
	`<a x="&lt;&amp;&gt;&quot;&apos;"/>`,
	`<a x="&#65;&#x42;"/>`,
	`<a x="line1&#10;line2"/>`,
	`<a x="tab&#9;end"/>`,
	"<a x='single &quot; quote'/>",
	`<e a="">text</e>`,
	// Namespace filtering: xmlns declarations are dropped, including the
	// corner where a prefix is bound to the literal value "xmlns".
	`<a xmlns="u" b="1"/>`,
	`<a xmlns:x="u" x:y="1" y="2"/>`,
	`<r xmlns:z="xmlns"><c z:a="1"/></r>`,
	`<r xmlns:z="xmlns"><c xmlns:z="u" z:a="1"/><d z:b="2"/></r>`,
	`<r><c xmlns:z="xmlns" z:a="1" b="2"/><d z:c="3"/></r>`,
	`<r xmlns:z="xmlns"><c xmlns:z="" z:a="1"/></r>`,
	`<a xml:lang="en" q:w="1"/>`,
	`<a xmlns:xml2="xmlns" xml2:x="1"/>`,
	// Prefixed element names record their local part.
	`<x:a xmlns:x="u"><x:b/><y:c/></x:a>`,
	// Text: entities, char refs, CDATA, whitespace trimming, \r\n
	// normalization, mixed content.
	`<a>plain</a>`,
	`<a>  padded  </a>`,
	"<a>\n\t\n</a>",
	`<a>one &amp; two &lt;three&gt;</a>`,
	`<a>&#x48;&#101;llo</a>`,
	"<a>line1\r\nline2\rline3</a>",
	`<a><![CDATA[<not><parsed> &amp; raw]]></a>`,
	`<a>before<![CDATA[ ]]>after</a>`,
	`<a><![CDATA[]]></a>`,
	`<a>t1<b/>t2<b/>t3</a>`,
	`<a>&#xD;</a>`,
	// Comments, PIs, DOCTYPE internal subsets.
	`<!--c--><a/><!--d-->`,
	`<a><!-- inside --><b/></a>`,
	`<!----><a/>`,
	`<?pi data?><a/>`,
	`<a><?target one two?></a>`,
	`<!DOCTYPE r [<!ELEMENT r (a)> <!-- c --> <!ENTITY e "v">]><r><a/></r>`,
	`<!DOCTYPE r [ <!ATTLIST r x CDATA "a>b"> ]><r/>`,
	// UTF-8 multibyte names and values.
	`<日本語><子 属="値"/></日本語>`,
	`<résumé naïve="café">Ü</résumé>`,
	`<a·b/>`,
	// Deep and wide structures.
	strings.Repeat("<d>", 60) + "x" + strings.Repeat("</d>", 60),
	`<r>` + strings.Repeat(`<leaf v="1"/>`, 40) + `</r>`,
	// Rejected inputs: ingestion and the oracle must turn these away.
	``,
	`not xml`,
	`<a>`,
	`<a><b></a></b>`,
	`<a attr=noquote/>`,
	`<a><b/>`,
	`<a>&undefined;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#x110000;</a>`,
	`<a x="unterminated/>`,
	`<1a/>`,
	`<a:b:c/>`,
	`<a>]]></a>`,
	`<a/><`,
	"<a>\xff\xfe</a>",
	`<?xml version="2.0"?><a/>`,
	`<a x="<"/>`,
}

// contextualEquivCorpus holds the documents of contextual ingestion:
// contexts of several depths, text, attributes, namespaces, markup the
// extraction skips, and inputs xmltok and encoding/xml must both reject.
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

// contextualEquivCaps are tight enough that contextualEquivCorpus trips
// every cap, MaxNames among them: it counts names, not contexts, so a
// deep document of one name never trips it.
var contextualEquivCaps = IngestOptions{MaxDepth: 10, MaxTokens: 64, MaxNames: 4, MaxBytes: 1 << 10}

// equivDepths are the context depths the equivalence suites run at.
var equivDepths = []int{0, 1, 2}

// checkDecoderEquivalence asserts that ingestion and the oracle agree on
// one document under the given caps at context depth k: identical
// acceptance, and on acceptance identical extraction state (the document
// staged into a shard and committed) and identical decode counts.
func checkDecoderEquivalence(t *testing.T, doc string, caps IngestOptions, k int) {
	t.Helper()
	ctx := context.Background()
	xf, xs := NewContextExtraction(k), NewContextExtraction(k)
	fi, sh := newFastIngester(k, xf.TextSamples), &fastShard{}
	fi.shard = sh
	sf, errF := fi.ingestOne(ctx, strings.NewReader(doc), &caps)
	if errF == nil {
		sh.sealNames(fi.names)
		commitFastShard(&workerCommit{}, sh, xf)
	}
	ss, errS := stdIngestOne(ctx, strings.NewReader(doc), &caps, xs)
	if (errF == nil) != (errS == nil) {
		t.Fatalf("k=%d caps=%+v: acceptance differs for %q:\nfast: %v\nstd:  %v", k, caps, doc, errF, errS)
	}
	if errF != nil {
		return
	}
	if got, want := snapshot(xf), snapshot(xs); got != want {
		t.Fatalf("k=%d caps=%+v: extraction state differs for %q:\nfast:\n%s\nstd:\n%s", k, caps, doc, got, want)
	}
	if sf.tokens != ss.tokens || sf.elements != ss.elements || sf.bytes != ss.bytes {
		t.Fatalf("k=%d caps=%+v: decode stats differ for %q: fast=%+v std=%+v", k, caps, doc, sf, ss)
	}
}

func TestFastDecoderEquivalence(t *testing.T) {
	for _, k := range equivDepths {
		for _, doc := range append(decoderEquivCorpus, contextualEquivCorpus...) {
			checkDecoderEquivalence(t, doc, IngestOptions{}, k)
			checkDecoderEquivalence(t, doc, *DefaultIngestOptions(), k)
			checkDecoderEquivalence(t, doc, IngestOptions{MaxDepth: 20, MaxTokens: 64, MaxNames: 8, MaxBytes: 1 << 10}, k)
			checkDecoderEquivalence(t, doc, contextualEquivCaps, k)
		}
	}
}

// TestFastDecoderBatchEquivalence ingests the whole corpus as one batch
// through AddDocs and through the oracle at every context depth,
// exercising the ingester's cross-document staging reuse (epoch resets,
// leftover state from rejected documents) that single-document runs
// cannot reach.
func TestFastDecoderBatchEquivalence(t *testing.T) {
	corpus := append(decoderEquivCorpus, contextualEquivCorpus...)
	docs := func() []Doc {
		docs := make([]Doc, len(corpus))
		for i, s := range corpus {
			docs[i] = Doc{Label: "doc", R: strings.NewReader(s)}
		}
		return docs
	}
	for _, k := range equivDepths {
		xf := NewContextExtraction(k)
		rf, err := xf.AddDocs(docs(), nil, SkipAndRecord)
		if err != nil {
			t.Fatal(err)
		}
		xs := NewContextExtraction(k)
		rs, err := xs.stdAddDocs(docs(), nil, SkipAndRecord)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Accepted != rs.Accepted || rf.Rejected != rs.Rejected {
			t.Fatalf("k=%d: batch acceptance differs: fast %d/%d, std %d/%d",
				k, rf.Accepted, rf.Rejected, rs.Accepted, rs.Rejected)
		}
		if rf.Tokens != rs.Tokens || rf.Elements != rs.Elements {
			t.Fatalf("k=%d: batch counters differ: fast tokens=%d elements=%d, std tokens=%d elements=%d",
				k, rf.Tokens, rf.Elements, rs.Tokens, rs.Elements)
		}
		if got, want := snapshot(xf), snapshot(xs); got != want {
			t.Fatalf("k=%d: batch extraction state differs:\nfast:\n%s\nstd:\n%s", k, got, want)
		}
	}
}

// FuzzTokenizerEquivalence feeds the same bytes through xmltok ingestion
// and the encoding/xml oracle at context depths 0, 1 and 2 and requires
// identical acceptance and, on acceptance, identical extraction state —
// uncapped and under two sets of tight resource caps. Run with
// -fuzz=FuzzTokenizerEquivalence; as a unit test it replays the seeds.
func FuzzTokenizerEquivalence(f *testing.F) {
	for _, seed := range append(decoderEquivCorpus, contextualEquivCorpus...) {
		f.Add(seed)
	}
	caps := IngestOptions{MaxDepth: 40, MaxTokens: 4096, MaxNames: 64, MaxBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, input string) {
		for _, k := range equivDepths {
			checkDecoderEquivalence(t, input, IngestOptions{}, k)
			checkDecoderEquivalence(t, input, caps, k)
			checkDecoderEquivalence(t, input, contextualEquivCaps, k)
		}
	})
}
