package dtd

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"dtdinfer/internal/gfa"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

const attrDoc1 = `<db>
  <rec id="r1" kind="book" lang="en"><ref to="r2"/></rec>
  <rec id="r2" kind="cd"><ref to="r1"/><ref to="r3"/></rec>
  <rec id="r3" kind="book" lang="de"><note>free text &amp; more</note></rec>
</db>`

// attrDoc2's references resolve within the document itself: ID/IDREF
// validity is per-document, and the validator now enforces resolution.
const attrDoc2 = `<db>
  <rec id="r4" kind="book"><ref to="r4"/></rec>
  <rec id="r5" kind="cd" lang="en"><ref to="r4"/></rec>
</db>`

func inferAttrs(t *testing.T) *DTD {
	t.Helper()
	return inferDocs(t, []string{attrDoc1, attrDoc2})
}

// inferDocs infers a DTD, attributes included, from the documents.
func inferDocs(t *testing.T, docs []string) *DTD {
	t.Helper()
	x := NewExtraction()
	for _, doc := range docs {
		mustAdd(t, x, doc)
	}
	d, _, err := inferDTD(x, func(sample [][]string) (*regex.Expr, error) {
		return gfa.Rewrite(soa.Infer(sample))
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func attr(t *testing.T, d *DTD, element, name string) *Attribute {
	t.Helper()
	for _, a := range d.Elements[element].Attributes {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("attribute %s missing on %s", name, element)
	return nil
}

func TestAttributeInference(t *testing.T) {
	d := inferAttrs(t)

	id := attr(t, d, "rec", "id")
	if id.Type != ID || !id.Required {
		t.Errorf("id = %+v, want required ID", id)
	}
	kind := attr(t, d, "rec", "kind")
	if kind.Type != Enumerated || !kind.Required {
		t.Errorf("kind = %+v, want required enumeration", kind)
	}
	if len(kind.Values) != 2 || kind.Values[0] != "book" || kind.Values[1] != "cd" {
		t.Errorf("kind values = %v", kind.Values)
	}
	lang := attr(t, d, "rec", "lang")
	if lang.Required {
		t.Errorf("lang should be #IMPLIED: %+v", lang)
	}
	// Three observations (en, en, de) are too weak for a closed
	// enumeration; the conservative call is NMTOKEN.
	if lang.Type != NMTOKEN {
		t.Errorf("lang = %+v, want NMTOKEN", lang)
	}
	to := attr(t, d, "ref", "to")
	if to.Type != IDREF || !to.Required {
		t.Errorf("to = %+v, want required IDREF", to)
	}
}

func TestAttributeSerializationRoundTrip(t *testing.T) {
	d := inferAttrs(t)
	text := d.String()
	for _, want := range []string{
		"<!ATTLIST rec id ID #REQUIRED>",
		"<!ATTLIST rec kind (book|cd) #REQUIRED>",
		"<!ATTLIST rec lang NMTOKEN #IMPLIED>",
		"<!ATTLIST ref to IDREF #REQUIRED>",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("serialized DTD missing %q:\n%s", want, text)
		}
	}
	d2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !d.Equal(d2) {
		t.Errorf("attribute round trip changed the DTD:\n%s\nvs\n%s", d, d2)
	}
}

func TestAttributeValidation(t *testing.T) {
	d := inferAttrs(t)
	v := NewValidator(d)
	// The training documents validate.
	for _, doc := range []string{attrDoc1, attrDoc2} {
		violations, err := v.Validate(strings.NewReader(doc))
		if err != nil || len(violations) != 0 {
			t.Fatalf("training doc invalid: %v %v", err, violations)
		}
	}
	cases := []struct {
		doc    string
		reason string
	}{
		{`<db><rec kind="book"><note>x</note></rec></db>`, "required attribute id missing"},
		{`<db><rec id="x" kind="vinyl"><note>x</note></rec></db>`, "not in enumeration"},
		{`<db><rec id="x" kind="book" extra="1"><note>y</note></rec></db>`, "attribute extra not declared"},
		{`<db><rec id="x" kind="book"><note>a</note></rec><rec id="x" kind="cd"><note>b</note></rec></db>`, "duplicate ID"},
	}
	for _, tc := range cases {
		violations, err := v.Validate(strings.NewReader(tc.doc))
		if err != nil {
			t.Fatalf("Validate(%q): %v", tc.doc, err)
		}
		found := false
		for _, viol := range violations {
			if strings.Contains(viol.Reason, tc.reason) {
				found = true
			}
		}
		if !found {
			t.Errorf("doc %q: want violation %q, got %v", tc.doc, tc.reason, violations)
		}
	}
}

func TestParseAttlistForms(t *testing.T) {
	d, err := Parse(`<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED y (on|off) "on" z NMTOKEN #IMPLIED>
<!ATTLIST a w ID #REQUIRED>
<!ATTLIST a f CDATA #FIXED "v">`)
	if err != nil {
		t.Fatal(err)
	}
	e := d.Elements["a"]
	if len(e.Attributes) != 5 {
		t.Fatalf("attributes = %v", e.Attributes)
	}
	if a := attr(t, d, "a", "y"); a.Type != Enumerated || a.Required ||
		len(a.Values) != 2 {
		t.Errorf("y = %+v", a)
	}
	if a := attr(t, d, "a", "w"); a.Type != ID || !a.Required {
		t.Errorf("w = %+v", a)
	}
	if a := attr(t, d, "a", "f"); a.Type != CDATA || a.Required {
		t.Errorf("f = %+v", a)
	}
}

func TestAttributeStatsOverflow(t *testing.T) {
	x := NewExtraction()
	for i := 0; i < maxAttValues+10; i++ {
		x.recordAttribute("e", "big", strings.Repeat("v", 1+i%7)+string(rune('a'+i%26))+itoa(i))
		x.AddSequences("e", [][]string{nil})
	}
	st := x.Attributes["e"]["big"]
	if !st.overflow {
		t.Error("overflow flag not set")
	}
	if isIDLike(st) {
		t.Error("overflowed attribute must not be an ID")
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// idCorpus generates n documents from a format with two %d verbs: the
// document's number from 1, then that number plus shift.
func idCorpus(format string, n, shift int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf(format, i+1, i+1+shift)
	}
	return docs
}

// TestInferredIDsValidateTrainingDocuments infers a DTD from corpora whose
// attributes look like IDs and requires the declared types to follow
// XML 1.0's ID rules: values unique across all ID attributes of a
// document, and ID and IDREF values that are Names. Every training
// document must then validate under its own DTD.
func TestInferredIDsValidateTrainingDocuments(t *testing.T) {
	for _, tc := range []struct {
		name string
		docs []string
		want map[string]AttType // "element attribute" -> type
	}{
		{
			// Every to value is distinct, so to looks like an ID too,
			// but its pool equals id's: neither can be an ID.
			name: "equal pools",
			docs: idCorpus(`<db><rec id="r%d"/><ref to="r%d"/></db>`, 40, 0),
			want: map[string]AttType{"rec id": NMTOKEN, "ref to": NMTOKEN},
		},
		{
			name: "strict subset",
			docs: idCorpus(`<db><rec id="a%d"/><rec id="b%[1]d"/><ref to="a%d"/></db>`, 40, 0),
			want: map[string]AttType{"rec id": ID, "ref to": IDREF},
		},
		{
			// x's pool is v1..v30 and y's v21..v50: they share values
			// without either containing the other.
			name: "partial overlap",
			docs: idCorpus(`<db><x k="v%d"/><y k="v%d"/></db>`, 30, 20),
			want: map[string]AttType{"x k": NMTOKEN, "y k": NMTOKEN},
		},
		{
			name: "disjoint pools",
			docs: idCorpus(`<db><x k="a%d"/><y k="b%d"/></db>`, 10, 0),
			want: map[string]AttType{"x k": ID, "y k": ID},
		},
		{
			name: "numbers are not names",
			docs: idCorpus(`<db><rec id="%d"/><ref to="n%d"/></db>`, 10, 0),
			want: map[string]AttType{"rec id": NMTOKEN, "ref to": ID},
		},
		{
			name: "references within documents",
			docs: []string{attrDoc1, attrDoc2},
			want: map[string]AttType{"rec id": ID, "ref to": IDREF},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := inferDocs(t, tc.docs)
			for ea, typ := range tc.want {
				elem, name, _ := strings.Cut(ea, " ")
				if a := attr(t, d, elem, name); a.Type != typ {
					t.Errorf("%s %s is %v, want %v", elem, name, a.Type, typ)
				}
			}
			v := NewValidator(d)
			for _, doc := range tc.docs {
				if vs, err := v.Validate(strings.NewReader(doc)); err != nil || len(vs) != 0 {
					t.Fatalf("training document %q rejected: %v %v\n%s", doc, err, vs, d)
				}
			}
		})
	}
}

// TestAttListCacheFromEarlierRules loads a summary saved by the ATTLIST
// pass before ID candidates were checked against each other: the same 40
// documents as the "equal pools" corpus, inferred with CacheConfig key
// "attlist" by countingInferrer, memoizing "rec id ID" and "ref to ID".
// The salted fingerprint must not match that pass, so the declarations
// are inferred again under the current rules instead of replayed.
func TestAttListCacheFromEarlierRules(t *testing.T) {
	data, err := os.ReadFile("testdata/attlist_pre_idrules.summary")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if c := x.attCache; c == nil || len(c.decls) != 2 || c.decls[1].a.Type != ID {
		t.Fatalf("summary does not hold the earlier pass: %+v", c)
	}
	var calls atomic.Int64
	d, stats, err := x.InferDTDElementsCached(context.Background(), &CacheConfig{Key: "attlist"}, countingInferrer(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if stats.AttListReplayed {
		t.Error("the ATTLIST pass of the earlier rules was replayed")
	}
	if a := attr(t, d, "ref", "to"); a.Type != NMTOKEN {
		t.Errorf("ref to is %v, want NMTOKEN", a.Type)
	}
	v := NewValidator(d)
	for _, doc := range idCorpus(`<db><rec id="r%d"/><ref to="r%d"/></db>`, 40, 0) {
		if vs, err := v.Validate(strings.NewReader(doc)); err != nil || len(vs) != 0 {
			t.Fatalf("training document %q rejected: %v %v", doc, err, vs)
		}
	}
	// The pass just computed is memoized under the salted fingerprint
	// and replays on the next one.
	if _, stats, err = x.InferDTDElementsCached(context.Background(), &CacheConfig{Key: "attlist"}, countingInferrer(&calls)); err != nil || !stats.AttListReplayed {
		t.Errorf("second pass: replayed=%t err=%v, want a replay", stats.AttListReplayed, err)
	}
}
