package server

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/xsd"
)

// publishDoc is the i-th document of the publish walk. The phases bring,
// in turn: new shapes of book (a model change), a rejected document, a
// (#PCDATA) element that turns mixed, an EMPTY element that gains
// element content, a new text element, a text value that changes year's
// XSD type while the DTD stays put, repeats that change nothing, and a
// book with text, which turns element content mixed.
func publishDoc(i int) string {
	book := fmt.Sprintf("<book><title>t%d</title><year>%d</year></book>", i, 1990+i)
	switch {
	case i < 10:
		return "<lib>" + book + "</lib>"
	case i < 20:
		return "<lib><book><title>t</title>" + strings.Repeat("<author>a</author>", i%3) + "<year>2000</year></book></lib>"
	case i == 20:
		return "<lib><book><title>unterminated</title>"
	case i < 25:
		return "<lib>" + book + "<note>text</note></lib>"
	case i < 30:
		return "<lib>" + book + "<note>t<b/></note></lib>"
	case i < 35:
		return "<lib>" + book + "<tag/></lib>"
	case i < 40:
		return "<lib>" + book + "<tag><x/></tag></lib>"
	case i < 45:
		return fmt.Sprintf("<lib>%s<isbn>978-0-%d</isbn></lib>", book, i)
	case i == 45:
		return "<lib><book><title>t</title><year>n.d.</year></book></lib>"
	case i == 55:
		return "<lib><book><title>t</title>stray text<year>2001</year></book></lib>"
	default:
		return publishDoc(i % 45)
	}
}

// publishBodies are validated at every version, by the published and
// the eagerly built validator alike: valid and invalid under various
// versions, with an undeclared element, a wrong root and a malformed one.
var publishBodies = []string{
	"<lib><book><title>a</title><year>1</year></book></lib>",
	"<lib><book><year>1</year><title>a</title></book></lib>",
	"<lib><book><title>a</title><author>x</author><author>y</author><year>1</year></book></lib>",
	"<lib><book><title>a</title>text<year>1</year></book></lib>",
	"<lib><book><title>a</title><year>1</year></book><note>t<b/></note><tag><x/></tag><isbn>1</isbn></lib>",
	"<lib><note><b/></note><tag/><tag><x/><x/></tag></lib>",
	"<lib><zzz/></lib>",
	"<shelf/>",
	"<lib><book>",
}

// TestPublishMatchesEagerRendering drives one tenant through 60 ingests
// and, at every version, holds the published bundle to eager rendering
// of the same snapshot: DTD.String, xsd.Generate over the extraction's
// text samples, and a fresh dtd.NewValidator's verdicts and violations.
func TestPublishMatchesEagerRendering(t *testing.T) {
	srv, err := New(Config{PersistInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(10 * time.Second)
	tn, err := srv.tenant("pub", true)
	if err != nil {
		t.Fatal(err)
	}
	var version uint64
	for i := 0; i < 60; i++ {
		j := &job{kind: jobIngest, data: []byte(publishDoc(i)), reply: make(chan jobResult, 1)}
		tn.queue <- j
		res := <-j.reply // the worker is idle again until the next send
		if i == 20 {
			if res.status != 422 {
				t.Fatalf("malformed document %d: status %d, want 422", i, res.status)
			}
			continue
		}
		if res.status != 200 || res.version != version+1 {
			t.Fatalf("document %d: status %d version %d (%s), want 200 version %d",
				i, res.status, res.version, res.message, version+1)
		}
		version = res.version
		p := tn.published.Load()
		if p.snap.Version != version {
			t.Fatalf("document %d: published v%d, want v%d", i, p.snap.Version, version)
		}
		if want := p.snap.DTD.String(); p.dtdText != want {
			t.Errorf("v%d: published DTD\n%s\nwant\n%s", version, p.dtdText, want)
		}
		if want := xsd.Generate(p.snap.DTD, tn.inc.Extraction().TextSamples); p.xsdText != want {
			t.Errorf("v%d: published XSD\n%s\nwant\n%s", version, p.xsdText, want)
		}
		eager := dtd.NewValidator(p.snap.DTD)
		for _, body := range publishBodies {
			got, gotErr := p.validator.Validate(strings.NewReader(body))
			want, wantErr := eager.Validate(strings.NewReader(body))
			if !slices.Equal(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("v%d: %s: published validator says %v %v, eager %v %v",
					version, body, got, gotErr, want, wantErr)
			}
		}
	}
	// The walk must have reached every change it was written to make.
	final := tn.published.Load()
	for name, want := range map[string]dtd.ContentType{"book": dtd.Mixed, "note": dtd.Mixed, "tag": dtd.Children, "isbn": dtd.PCData} {
		if e := final.snap.DTD.Elements[name]; e == nil || e.Type != want {
			t.Errorf("final DTD: %s is %v, want type %v", name, e, want)
		}
	}
	if !strings.Contains(final.xsdText, `<xs:element name="year" type="xs:NMTOKEN"/>`) {
		t.Errorf("final XSD does not type year as xs:NMTOKEN:\n%s", final.xsdText)
	}
}

// BenchmarkPublish times one publish — render's DTD text, XSD text and
// validator — after a one-document ingest into a tenant of 150 merged
// Protein bodies, with the replaced bundle's validator to share automata
// from (prev) and without it (cold, every content model compiled).
func BenchmarkPublish(b *testing.B) {
	const perBody = 8
	bodies := func(seed int64, n int) []dtd.Doc {
		docs := corpus.Protein(seed, n*perBody)
		out := make([]dtd.Doc, n)
		for i := range out {
			var buf bytes.Buffer
			buf.WriteString("<ProteinDatabase>")
			for _, d := range docs[i*perBody : (i+1)*perBody] {
				buf.WriteString(strings.TrimSuffix(strings.TrimPrefix(d, "<ProteinDatabase>"), "</ProteinDatabase>"))
			}
			buf.WriteString("</ProteinDatabase>")
			out[i] = dtd.Doc{R: bytes.NewReader(buf.Bytes())}
		}
		return out
	}
	for _, withPrev := range []bool{true, false} {
		name := "cold"
		if withPrev {
			name = "prev"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			inc := core.NewIncremental(core.IDTD, &core.Options{Degrade: core.DegradeLadder})
			if _, err := inc.AddDocs(ctx, bodies(1, 150), nil, dtd.FailFast); err != nil {
				b.Fatal(err)
			}
			snap, err := inc.Refresh(ctx)
			if err != nil {
				b.Fatal(err)
			}
			p := render(snap, inc.Extraction().TextSamples, nil)
			more := bodies(2, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := inc.AddDocs(ctx, more[i%len(more):i%len(more)+1], nil, dtd.FailFast); err != nil {
					b.Fatal(err)
				}
				if snap, err = inc.Refresh(ctx); err != nil {
					b.Fatal(err)
				}
				prev := p
				if !withPrev {
					prev = nil
				}
				b.StartTimer()
				p = render(snap, inc.Extraction().TextSamples, prev)
			}
		})
	}
}
