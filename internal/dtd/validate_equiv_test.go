package dtd

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// oracleDTD has every content type (EMPTY, ANY, (#PCDATA), mixed,
// children) and every attribute type (CDATA, NMTOKEN, enumeration, ID,
// IDREF, #REQUIRED), so each check of the validator has something to
// fire on.
const oracleDTD = `<!DOCTYPE db [
<!ELEMENT db (rec|ref|note|para|hr|any)*>
<!ELEMENT rec (name,tag*)>
<!ELEMENT ref EMPTY>
<!ELEMENT name (#PCDATA)>
<!ELEMENT tag EMPTY>
<!ELEMENT note (#PCDATA)>
<!ELEMENT para (#PCDATA|b|i)*>
<!ELEMENT b (#PCDATA)>
<!ELEMENT i (#PCDATA)>
<!ELEMENT hr EMPTY>
<!ELEMENT any ANY>
<!ATTLIST rec id ID #REQUIRED kind (book|cd) #IMPLIED code NMTOKEN #IMPLIED title CDATA #IMPLIED>
<!ATTLIST ref to IDREF #REQUIRED>
<!ATTLIST tag label CDATA #REQUIRED>
]>`

// validateCase is one document of the oracle table. want names what the
// document must produce: "" a valid verdict, "error" a non-limit error,
// "limit:<kind>" a *LimitError of that kind, anything else a substring of
// some violation's reason. opts are the caps it runs under.
type validateCase struct {
	name string
	doc  string
	opts *IngestOptions
	want string
}

var validateCases = []validateCase{
	{name: "valid", doc: `<db><rec id="a" kind="cd" code="x1" title="T &amp; U"><name>n</name><tag label="l"/></rec><ref to="a"/><note>t</note><para>x<b>y</b><i/>z</para><hr/><any><rec id="b"><name/></rec>free</any></db>`},
	// One document per violation kind.
	{name: "wrong root", doc: `<rec id="a"><name/></rec>`, want: "root is rec, DTD expects db"},
	{name: "undeclared element", doc: `<db><zzz><name/></zzz></db>`, want: "element not declared in DTD"},
	{name: "undeclared attribute", doc: `<db><rec id="a" bogus="1"><name/></rec></db>`, want: "attribute bogus not declared"},
	{name: "EMPTY with text", doc: `<db><hr>x</hr></db>`, want: "EMPTY element has content"},
	{name: "EMPTY with child", doc: `<db><hr><b/></hr></db>`, want: "EMPTY element has content"},
	{name: "PCDATA with children", doc: `<db><note>a<b/><i/></note></db>`, want: "(#PCDATA) element has child elements [b i]"},
	{name: "mixed child not allowed", doc: `<db><para>x<tag label="l"/><b/><hr/></para></db>`, want: "child tag not allowed in mixed content"},
	{name: "content model mismatch", doc: `<db><rec id="a"><tag label="l"/></rec></db>`, want: "children [tag] do not match (name,tag*)"},
	{name: "text in element content", doc: `<db><rec id="a">txt<name/></rec></db>`, want: "character data not allowed in element content"},
	{name: "missing required attribute", doc: `<db><rec><name/></rec></db>`, want: "required attribute id missing"},
	{name: "enumeration miss", doc: `<db><rec id="a" kind="vinyl"><name/></rec></db>`, want: `attribute kind value "vinyl" not in enumeration [book cd]`},
	{name: "duplicate ID", doc: `<db><rec id="a"><name/></rec><rec id="a"><name/></rec><rec id="a"><name/></rec></db>`, want: `duplicate ID "a"`},
	{name: "dangling IDREF", doc: `<db><ref to="zz"/><rec id="a"><name/></rec><ref to="a"/><ref to="yy"/></db>`, want: `IDREF attribute to value "zz" does not match any ID`},
	{name: "forward IDREF", doc: `<db><ref to="a"/><rec id="a"><name/></rec></db>`},
	{name: "many violations", doc: `<db><rec kind="x" q="1">t<zzz/></rec><hr>y</hr><ref to="nope"/><note><b/></note></db>`, want: "required attribute id missing"},
	{name: "second root", doc: `<db/><rec id="a"><name/></rec>`, want: "root is rec"},
	{name: "text outside root", doc: " x <db/> y "},
	// Namespaces: prefixed names validate by local name, xmlns
	// declarations are skipped, and a prefix bound to the literal value
	// "xmlns" puts its attributes in the xmlns space, where encoding/xml
	// skips them too.
	{name: "default namespace", doc: `<db xmlns="urn:x"><rec id="a" xmlns="urn:y"><name/></rec></db>`},
	{name: "prefixed names", doc: `<p:db xmlns:p="urn:p"><p:rec p:id="a" q:kind="cd"><name/></p:rec></p:db>`},
	{name: "xmlns attribute with prefix", doc: `<db><rec id="a" p:xmlns="u"><name/></rec></db>`},
	{name: "prefix bound to xmlns", doc: `<db xmlns:z="xmlns"><rec id="a" z:extra="1"><name/></rec></db>`},
	{name: "prefix bound to xmlns on own element", doc: `<db><rec z:extra="1" id="a" xmlns:z="xmlns"><name/></rec><rec id="b" z:other="1"><name/></rec></db>`, want: "attribute other not declared"},
	{name: "prefix rebound", doc: `<db xmlns:z="xmlns"><rec id="a" xmlns:z="u" z:extra="1"><name/></rec><ref to="a" z:x="1"/></db>`, want: "attribute extra not declared"},
	{name: "xml prefix", doc: `<db xmlns:xml2="xmlns"><rec id="a" xml:lang="en" xml2:x="1"><name/></rec></db>`, want: "attribute lang not declared"},
	{name: "required attribute only as xmlns", doc: `<db><tag xmlns:label="u"/></db>`, want: "required attribute label missing"},
	// Entity and character references, CRLF, CDATA.
	{name: "references", doc: `<db><note>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</note><rec id="&#97;" kind="c&#100;"><name>&#x20;</name></rec><ref to="a"/></db>`},
	{name: "reference in enumeration", doc: `<db><rec id="a" kind="b&#111;ok&amp;"><name/></rec></db>`, want: `value "book&" not in enumeration`},
	{name: "reference as text", doc: `<db><rec id="a">&#x20;&#9;&#65;<name/></rec></db>`, want: "character data not allowed"},
	{name: "CRLF", doc: "<db>\r\n<rec id=\"a\"\r\n kind=\"cd\">\r\n<name>x\r\ny</name>\r\n</rec>\r\n</db>\r\n"},
	{name: "CR in element content", doc: "<db><rec id=\"a\">\r<name/>\r\r\n</rec></db>"},
	{name: "CDATA whitespace", doc: `<db><rec id="a"><![CDATA[ ]]><name><![CDATA[<x>]]></name></rec></db>`},
	{name: "CDATA text", doc: `<db><rec id="a"><![CDATA[x]]><name/></rec></db>`, want: "character data not allowed"},
	{name: "CDATA in EMPTY", doc: `<db><hr><![CDATA[]]></hr><hr><![CDATA[ y ]]></hr></db>`, want: "EMPTY element has content"},
	{name: "unicode whitespace", doc: "<db><rec id=\"a\">\u00a0\u2003<name/></rec><hr>\u3000</hr></db>"},
	{name: "non-ASCII names", doc: `<db><résumé/><rec id="é"><name>ü</name></rec></db>`, want: "element not declared"},
	// Comments, processing instructions and a DOCTYPE.
	{name: "markup", doc: `<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE db [<!ELEMENT db ANY> <!-- c -->]><!--c--><db><?pi x?><rec id="a"><!--c--><name>a<!--c-->b</name></rec><hr><!--c--><?pi?></hr></db><!--after-->`},
	// Caps.
	{name: "depth cap", doc: `<db><any><any><any><any/></any></any></any></db>`, opts: &IngestOptions{MaxDepth: 3}, want: "limit:depth"},
	{name: "depth cap not reached", doc: `<db><any><any/></any></db>`, opts: &IngestOptions{MaxDepth: 3}},
	{name: "token cap", doc: `<db><hr/><hr/><hr/><hr/></db>`, opts: &IngestOptions{MaxTokens: 5}, want: "limit:tokens"},
	{name: "token cap counts markup", doc: `<db><!--c--><?p?>x</db>`, opts: &IngestOptions{MaxTokens: 4}, want: "limit:tokens"},
	{name: "byte cap", doc: `<db><note>` + strings.Repeat("x", 100) + `</note></db>`, opts: &IngestOptions{MaxBytes: 40}, want: "limit:bytes"},
	// The reader cap falls past the first read of both decoders (4 KiB
	// for encoding/xml's bufio, 8 KiB for xmltok): the violations found
	// before it must still agree.
	{name: "byte cap past the first read", doc: `<db>` + strings.Repeat(`<hr>x</hr>`, 2000) + `</db>`, opts: &IngestOptions{MaxBytes: 10000}, want: "limit:bytes"},
	{name: "caps after violations", doc: `<db><zzz/><zzz/><zzz/></db>`, opts: &IngestOptions{MaxTokens: 4}, want: "limit:tokens"},
	{name: "default caps", doc: `<db><rec id="a"><name/></rec></db>`, opts: DefaultIngestOptions()},
	// Malformed documents.
	{name: "empty", doc: ``},
	{name: "truncated", doc: `<db><rec id="a"><name>`, want: "error"},
	{name: "truncated tag", doc: `<db><rec id="a`, want: "error"},
	{name: "mismatched end tag", doc: `<db><rec id="a"><name></rec></name></db>`, want: "error"},
	{name: "bad name", doc: `<db><1a/></db>`, want: "error"},
	{name: "bad character", doc: "<db><note>\x01</note></db>", want: "error"},
	{name: "invalid UTF-8", doc: "<db><note>\xff</note></db>", want: "error"},
	{name: "undefined entity", doc: `<db><note>&nbsp;</note></db>`, want: "error"},
	{name: "unquoted attribute", doc: `<db><rec id=a><name/></rec></db>`, want: "error"},
	{name: "violation before error", doc: `<db><zzz/><hr>x</hr><</db>`, want: "error"},
}

// validateOutcome is what the two validators must agree on.
type validateOutcome struct {
	err        bool
	limit      string // the *LimitError's kind, "" when none
	limitAt    int64  // and its offset
	violations []Violation
}

func outcomeOf(vs []Violation, err error) validateOutcome {
	o := validateOutcome{err: err != nil, violations: vs}
	var le *LimitError
	if errors.As(err, &le) {
		o.limit, o.limitAt = le.Limit, le.Offset
	}
	return o
}

func (o validateOutcome) String() string {
	return fmt.Sprintf("err=%t limit=%q at %d violations=%v", o.err, o.limit, o.limitAt, o.violations)
}

func (o validateOutcome) equal(p validateOutcome) bool {
	return o.err == p.err && o.limit == p.limit && o.limitAt == p.limitAt && slices.Equal(o.violations, p.violations)
}

// bothOutcomes validates doc with the xmltok validator and the
// encoding/xml oracle.
func bothOutcomes(v *Validator, doc string, opts *IngestOptions) (got, want validateOutcome) {
	got = outcomeOf(v.ValidateOptions(strings.NewReader(doc), opts))
	want = outcomeOf(v.stdValidateOptions(strings.NewReader(doc), opts))
	return got, want
}

// TestValidatorOracle runs the xmltok validator and the encoding/xml
// oracle over the table and requires the same outcome on every document,
// and that each document produces what its row says it exercises. A
// byte cap fires at offset MaxBytes+1 on both, whatever their read
// sizes.
func TestValidatorOracle(t *testing.T) {
	v := NewValidator(MustParse(oracleDTD))
	for _, tc := range validateCases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := bothOutcomes(v, tc.doc, tc.opts)
			if !got.equal(want) {
				t.Fatalf("xmltok validator and encoding/xml oracle differ on %q:\nxmltok: %v\noracle: %v", tc.doc, got, want)
			}
			switch {
			case tc.want == "":
				if got.err || len(got.violations) != 0 {
					t.Errorf("want valid, got %v", got)
				}
			case tc.want == "error":
				if !got.err || got.limit != "" {
					t.Errorf("want a syntax error, got %v", got)
				}
			case strings.HasPrefix(tc.want, "limit:"):
				if got.limit != strings.TrimPrefix(tc.want, "limit:") {
					t.Errorf("want %s, got %v", tc.want, got)
				}
				if got.limit == "bytes" && got.limitAt != tc.opts.MaxBytes+1 {
					t.Errorf("byte cap fired at offset %d, want %d", got.limitAt, tc.opts.MaxBytes+1)
				}
			default:
				found := slices.ContainsFunc(got.violations, func(viol Violation) bool {
					return strings.Contains(viol.Reason, tc.want)
				})
				if got.err || !found {
					t.Errorf("want a violation containing %q, got %v", tc.want, got)
				}
			}
		})
	}
}

// TestValidatorSyntaxErrorOffset pins the one visible change of the move
// to xmltok: a malformed document's error gives a byte offset, as an
// ingest of it does, instead of encoding/xml's line number.
func TestValidatorSyntaxErrorOffset(t *testing.T) {
	v := NewValidator(MustParse(oracleDTD))
	_, err := v.Validate(strings.NewReader("<db>\n<rec></db>"))
	if err == nil || !strings.Contains(err.Error(), "dtd: parsing XML: XML syntax error at offset 15:") {
		t.Fatalf("err = %v, want an XML syntax error at offset 15", err)
	}
}

// FuzzValidatorEquivalence holds the xmltok validator to the encoding/xml
// oracle on arbitrary documents against oracleDTD: the same error or
// none, the same limit kind and offset, and the same violations
// (element, offset, reason), uncapped and under tight caps. Run with
// -fuzz=FuzzValidatorEquivalence; as a unit test it replays the seeds.
func FuzzValidatorEquivalence(f *testing.F) {
	for _, tc := range validateCases {
		f.Add(tc.doc)
	}
	for _, doc := range decoderEquivCorpus {
		f.Add(doc)
	}
	v := NewValidator(MustParse(oracleDTD))
	caps := []*IngestOptions{nil, {MaxDepth: 6, MaxTokens: 48}, {MaxBytes: 100}}
	f.Fuzz(func(t *testing.T, doc string) {
		for _, opts := range caps {
			got, want := bothOutcomes(v, doc, opts)
			if !got.equal(want) {
				t.Fatalf("xmltok validator and encoding/xml oracle differ on %q (caps %+v):\nxmltok: %v\noracle: %v", doc, opts, got, want)
			}
		}
	})
}
