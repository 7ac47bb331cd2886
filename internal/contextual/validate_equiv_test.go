package contextual

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dtdinfer/internal/dtd"
)

// oracleDocs train the oracle table's schema: vertical typing (name under
// book and under author), mixed content (note), EMPTY (hr) and text-only
// types.
var oracleDocs = []string{
	storeDoc,
	`<store><book><name><title>T</title></name><author><name><first>A</first><last>B</last></name></author><note>a <b>b</b> c</note><hr/></book></store>`,
}

// contextCase is one document of the oracle table; want is "" for a
// valid verdict, "error" for a syntax error, otherwise a substring of
// some violation's reason.
type contextCase struct {
	name, doc, want string
}

var contextCases = []contextCase{
	{name: "valid", doc: `<store><book><name><title>T</title><sub>S</sub></name><author><name><first>A</first><last>B</last></name></author><note>x<b>y</b></note><hr/></book></store>`},
	// One document per violation kind.
	{name: "wrong root", doc: `<book/>`, want: "root is book, schema expects store"},
	{name: "unknown context", doc: `<store><magazine><name/></magazine></store>`, want: "no type for context store/magazine"},
	{name: "EMPTY with content", doc: `<store><book><name><title/></name><author><name><first/><last/></name></author><note/><hr>x</hr></book></store>`, want: "EMPTY element has content"},
	{name: "text-only with children", doc: `<store><book><name><title><b/></title></name><author><name><first/><last/></name></author></book></store>`, want: "text-only element has child elements"},
	{name: "mixed child not allowed", doc: `<store><book><name><title/></name><author><name><first/><last/></name></author><note><hr/></note><hr/></book></store>`, want: "child hr not allowed in mixed content"},
	{name: "confusable context", doc: `<store><book><name><title/></name><author><name><title/></name></author></book></store>`, want: "do not match type"},
	{name: "text in element content", doc: `<store>t<book><name><title/></name><author><name><first/><last/></name></author></book></store>`, want: "character data not allowed in element content"},
	// Namespaces, references, CRLF, CDATA and markup.
	{name: "namespaces", doc: `<s:store xmlns:s="urn:s" xmlns="urn:d"><book a="1" s:b="2"><name><title/></name><author><name><first/><last/></name></author></book></s:store>`},
	{name: "references", doc: `<store><book><name><title>&lt;&#65;</title></name><author><name><first>&amp;</first><last>&#x42;</last></name></author></book></store>`},
	{name: "reference as text", doc: `<store>&#65;<book><name><title/></name><author><name><first/><last/></name></author></book></store>`, want: "character data not allowed"},
	{name: "CRLF", doc: "<store>\r\n<book>\r\n<name><title>a\r\nb</title></name>\r<author><name><first/><last/></name></author></book>\r\n</store>"},
	{name: "CDATA", doc: `<store><![CDATA[ ]]><book><name><title><![CDATA[<x>]]></title></name><author><name><first/><last/></name></author><hr><![CDATA[z]]></hr></book></store>`, want: "EMPTY element has content"},
	{name: "markup", doc: `<?xml version="1.0"?><!DOCTYPE store><!--c--><store><?pi?><book><name><title>a<!--c-->b</title></name><author><name><first/><last/></name></author></book></store>`},
	// Malformed documents.
	{name: "truncated", doc: `<store><book>`, want: "error"},
	{name: "mismatched end tag", doc: `<store><book></store></book>`, want: "error"},
	{name: "bad name", doc: `<store><1a/></store>`, want: "error"},
	{name: "bad character", doc: "<store>\x01</store>", want: "error"},
	{name: "violation before error", doc: `<store><magazine/><book>`, want: "error"},
}

type contextOutcome struct {
	err        bool
	violations []dtd.Violation
}

func (o contextOutcome) String() string {
	return fmt.Sprintf("err=%t violations=%v", o.err, o.violations)
}

// TestContextualValidatorOracle runs the xmltok validator and the
// encoding/xml oracle over the table and requires the same error verdict
// and the same violations (element, offset, reason) on every document,
// and that each document produces what its row says it exercises.
func TestContextualValidatorOracle(t *testing.T) {
	v := NewValidator(inferSchema(t, 1, oracleDocs...))
	for _, tc := range contextCases {
		t.Run(tc.name, func(t *testing.T) {
			vs, err := v.Validate(strings.NewReader(tc.doc))
			got := contextOutcome{err != nil, vs}
			vs, err = v.stdValidate(strings.NewReader(tc.doc))
			want := contextOutcome{err != nil, vs}
			if got.err != want.err || !slices.Equal(got.violations, want.violations) {
				t.Fatalf("xmltok validator and encoding/xml oracle differ on %q:\nxmltok: %v\noracle: %v", tc.doc, got, want)
			}
			switch tc.want {
			case "":
				if got.err || len(got.violations) != 0 {
					t.Errorf("want valid, got %v", got)
				}
			case "error":
				if !got.err {
					t.Errorf("want a syntax error, got %v", got)
				}
			default:
				found := slices.ContainsFunc(got.violations, func(viol dtd.Violation) bool {
					return strings.Contains(viol.Reason, tc.want)
				})
				if got.err || !found {
					t.Errorf("want a violation containing %q, got %v", tc.want, got)
				}
			}
		})
	}
}
