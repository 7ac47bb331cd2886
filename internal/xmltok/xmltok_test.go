package xmltok

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// event is one token in normalized form, comparable across the fast
// tokenizer and the encoding/xml oracle. Attribute prefixes are omitted:
// encoding/xml reports post-translation namespace URLs, not raw
// prefixes, so prefix behaviour is asserted by targeted tests instead.
type event struct {
	kind  Kind
	name  string   // StartElement/EndElement local name
	text  string   // CharData content
	attrs []string // "local=value" per attribute, in order
}

func (e event) String() string {
	return fmt.Sprintf("{%d %q %q %v}", e.kind, e.name, e.text, e.attrs)
}

// driveTok runs the fast tokenizer to completion.
func driveTok(t *Tokenizer, data string) ([]event, error) {
	return driveReader(t, strings.NewReader(data))
}

// driveReader runs the fast tokenizer over r to completion.
func driveReader(t *Tokenizer, r io.Reader) ([]event, error) {
	t.Reset(r)
	var evs []event
	for {
		kind, err := t.Next()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		ev := event{kind: kind}
		switch kind {
		case StartElement:
			ev.name = string(t.Name())
			for _, a := range t.Attr() {
				ev.attrs = append(ev.attrs, string(a.Local)+"="+string(a.Value))
			}
		case EndElement:
			ev.name = string(t.Name())
		case CharData:
			ev.text = string(t.Text())
		}
		evs = append(evs, ev)
	}
}

// driveStd runs the encoding/xml oracle to completion in strict mode.
func driveStd(data string) ([]event, error) {
	dec := xml.NewDecoder(strings.NewReader(data))
	var evs []event
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			ev := event{kind: StartElement, name: t.Name.Local}
			for _, a := range t.Attr {
				ev.attrs = append(ev.attrs, a.Name.Local+"="+a.Value)
			}
			evs = append(evs, ev)
		case xml.EndElement:
			evs = append(evs, event{kind: EndElement, name: t.Name.Local})
		case xml.CharData:
			evs = append(evs, event{kind: CharData, text: string(t)})
		case xml.Comment:
			evs = append(evs, event{kind: Comment})
		case xml.ProcInst:
			evs = append(evs, event{kind: ProcInst})
		case xml.Directive:
			evs = append(evs, event{kind: Directive})
		}
	}
}

func sameEvents(a, b []event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].name != b[i].name || a[i].text != b[i].text {
			return false
		}
		if len(a[i].attrs) != len(b[i].attrs) {
			return false
		}
		for j := range a[i].attrs {
			if a[i].attrs[j] != b[i].attrs[j] {
				return false
			}
		}
	}
	return true
}

// equivalenceCorpus is the shared battery of tricky documents — valid
// and invalid — that both the table test and the fuzz seeds use.
var equivalenceCorpus = []string{
	// Plain structure.
	"<a/>",
	"<a></a>",
	"<a><b/><c>x</c></a>",
	"<root><mid><leaf>text</leaf></mid><leaf/></root>",
	"<a>one<b/>two</a>",
	"  <a/>  ",
	"text only, no markup",
	"<a/><b/>",          // multiple roots: accepted by encoding/xml
	"leading<a/>middle", // top-level text around a root
	"",

	// Attributes.
	`<a x="1" y='2'/>`,
	`<a x="a&amp;b"/>`,
	`<a x="&lt;&gt;&apos;&quot;&amp;"/>`,
	`<a x="&#65;&#x42;"/>`,
	`<a x="]]>"/>`, // ]]> is legal inside quoted values
	`<a x="tab&#9;end"/>`,
	`<a x=""/>`,
	`<a x="1" x="1"/>`, // duplicate attrs are not rejected
	`<a x=1/>`,         // unquoted: strict error
	`<a x/>`,           // missing =: strict error
	`<a x="1'/>`,       // mismatched quote: unexpected EOF
	`<a x="<"/>`,       // unescaped < in value
	`<a ="1"/>`,
	"<a x=\"new\nline\"/>",
	"<a x=\"cr\rend\"/>",

	// Entities and character references in text.
	"<a>&lt;tag&gt;</a>",
	"<a>&amp;&apos;&quot;</a>",
	"<a>&#65;&#x41;&#x6a;</a>",
	"<a>&#xD;</a>", // entity-produced \r is NOT newline-normalized
	"<a>&#x20AC;</a>",
	"<a>&#xD800;</a>",                // surrogate: becomes U+FFFD, accepted
	"<a>&#x110000;</a>",              // beyond MaxRune: rejected
	"<a>&#99999999999999999999;</a>", // overflow: rejected
	"<a>&unknown;</a>",
	"<a>&lt</a>",  // missing semicolon
	"<a>&;</a>",   // empty entity
	"<a>&#;</a>",  // empty char ref
	"<a>&#x;</a>", // empty hex ref
	"<a>& lt;</a>",
	"<a>&lt ;</a>",

	// Newline normalization.
	"<a>line1\r\nline2</a>",
	"<a>line1\rline2</a>",
	"<a>line1\r\rline2</a>",
	"<a>line1\n\rline2</a>",
	"<a>\r</a>",
	"<a>\r\n</a>",

	// CDATA.
	"<a><![CDATA[hello]]></a>",
	"<a><![CDATA[]]></a>",
	"<a><![CDATA[<not><tags>&amp;]]></a>",
	"<a><![CDATA[a]]b]]></a>",
	"<a><![CDATA[\r\nx\r]]></a>",
	"<a><![CDATA[unterminated</a>",
	"<a><![CDAT[x]]></a>",
	"<a>plain ]]> text</a>", // ]]> outside CDATA: rejected
	"<a>] ]></a>",
	"<a>]]</a>",

	// Comments.
	"<a><!-- a comment --></a>",
	"<!--c--><a/>",
	"<a><!----></a>",
	"<a><!-- -- --></a>", // -- inside comment: rejected
	"<a><!----->",        // ---> : rejected
	"<a><!--unterminated</a>",
	"<a>x<!--c-->y</a>", // comment splits CharData

	// Processing instructions.
	"<?xml version=\"1.0\"?><a/>",
	"<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>",
	"<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>",
	"<?xml version=\"1.1\"?><a/>",                     // unsupported version
	"<?xml version=\"1.0\" encoding=\"latin1\"?><a/>", // unsupported encoding
	"<?xml?><a/>",
	"<a><?xml version=\"1.1\"?></a>", // version checked anywhere
	"<?target some data?><a/>",
	"<a>x<?pi?>y</a>", // PI splits CharData
	"<?pi unterminated<a/>",
	"<? x?><a/>", // missing target name
	"<a><?pi a?b?>c</a>",

	// Directives / DOCTYPE.
	"<!DOCTYPE doc><a/>",
	"<!DOCTYPE doc SYSTEM \"doc.dtd\"><a/>",
	"<!DOCTYPE doc [<!ELEMENT doc (#PCDATA)>]><a/>",
	"<!DOCTYPE doc [<!ENTITY e \"v\"><!ATTLIST a x CDATA #IMPLIED>]><a/>",
	"<!DOCTYPE doc [ <!-- comment with > inside --> ]><a/>",
	"<!DOCTYPE doc \"quoted > bracket\"><a/>",
	"<!DOCTYPE doc 'single > quote'><a/>",
	"<!DOCTYPE doc [<!E a><!E b>]><a/>",
	"<!DOCTYPE unterminated [<a/>",
	"<!>x><a/>",
	"<!\"x\"><a/>",
	"<a><!-</a>",

	// Names: namespaces, colons, unicode.
	"<x:a xmlns:x=\"u\"><x:b/></x:a>",
	"<a:b></a:b>",
	"<a:b></b>", // prefix mismatch
	"<a:b:c/>",  // two colons: rejected
	"<:a/>",     // leading colon: local is ":a"
	"<:a></:a>",
	"<a:/>", // trailing colon: local is "a:"
	"<1a/>", // digit start: invalid name
	"<.a/>", // dot start: invalid name
	"<-a/>",
	"<a.b-c_d/>",
	"<\u00e9l\u00e9ment/>",      // Latin-1 letters
	"<\u65e5\u672c\u8a9e/>",     // CJK name
	"<a \u00e9=" + `"v"` + "/>", // unicode attribute name
	"<\u0301bad/>",              // combining mark start: invalid
	"<a\xff/>",                  // invalid UTF-8 in name
	"<a xmlns=\"d\"><b/></a>",
	"<a xmlns:x=\"u\" x:y=\"1\"/>",

	// Structure errors.
	"<a><b></a></b>",
	"<a></b>",
	"</a>",
	"<a>",
	"<a><b>",
	"<a",
	"<",
	"<>",
	"< a/>",
	"<a/ >",
	"<a / >",
	"<a//>",
	"<a>x",     // text then EOF with open element
	"<a></a >", // space before > in end tag is fine
	"<a></ a>", // space before name in end tag is not a name start

	// Character validity.
	"<a>\x00</a>",
	"<a>\x0b</a>",
	"<a>\xc3\x28</a>",     // invalid UTF-8 in text
	"<a>\xef\xbf\xbe</a>", // U+FFFE: outside Char range
	"<a x=\"\x00\"/>",
	"<a>\xf0\x9f\x98\x80</a>", // emoji: fine

	// Edges of the end-tag name match and the read-buffer text span.
	"<ab></a>",
	"<a></ab>",
	"<a></a\u00e9>",
	"<a\u00b7b></a\u00b7b>", // U+00B7 is a NameChar but not a NameStart
	"<a:b></a:c>",
	"<x:a></y:a>", // same local name, other prefix
	"<a></a\t>",
	"<a>x</a", // EOF inside the end tag
	"<a>caf\u00e9</a>",
	"<a>x>y</a>",
	"<a>\x7f</a>", // DEL is a Char
	"<a>\x1f</a>", // other C0 controls are not
}

func TestTokenizerEquivalence(t *testing.T) {
	tok := NewTokenizer()
	for _, doc := range equivalenceCorpus {
		fastEvs, fastErr := driveTok(tok, doc)
		stdEvs, stdErr := driveStd(doc)
		if (fastErr != nil) != (stdErr != nil) {
			t.Errorf("doc %q: fast err = %v, std err = %v", doc, fastErr, stdErr)
			continue
		}
		if fastErr != nil {
			// Both reject: the token prefixes before the error must agree.
			if !sameEvents(fastEvs, stdEvs) {
				t.Errorf("doc %q: prefix mismatch before error\nfast: %v (%v)\nstd:  %v (%v)",
					doc, fastEvs, fastErr, stdEvs, stdErr)
			}
			continue
		}
		if !sameEvents(fastEvs, stdEvs) {
			t.Errorf("doc %q:\nfast: %v\nstd:  %v", doc, fastEvs, stdEvs)
		}
	}
}

// TestTokenizerBufferBoundaries shifts a document across the internal
// read-buffer boundary so every special byte lands on a chunk edge at
// least once, and also feeds it one byte at a time. The plain and
// non-ASCII text runs and their end tags straddle the edge at some shift,
// so a text run that would be a read-buffer span meets the copying path
// there.
func TestTokenizerBufferBoundaries(t *testing.T) {
	doc := `<root a="v&amp;1"><!-- c --><x:kid xmlns:x="u">text &#65;</x:kid>` +
		"<k><![CDATA[cd]]x]]></k>\r\n<plain>a plain text run</plain>" +
		"<caf\u00e9>cr\u00e8me br\u00fbl\u00e9e \u20ac</caf\u00e9></root>"
	want, err := driveStd(strings.Repeat(" ", 7) + doc)
	if err != nil {
		t.Fatal(err)
	}
	tok := NewTokenizer()
	for pad := readBufSize - len(doc) - 4; pad < readBufSize+4; pad++ {
		if pad < 0 {
			continue
		}
		in := strings.Repeat(" ", pad) + doc
		got, err := driveTok(tok, in)
		if err != nil {
			t.Fatalf("pad %d: %v", pad, err)
		}
		// Strip the leading whitespace CharData and compare the rest.
		wantTail, gotTail := want[1:], got[1:]
		if !sameEvents(gotTail, wantTail) {
			t.Fatalf("pad %d:\ngot:  %v\nwant: %v", pad, gotTail, wantTail)
		}
	}
	// One byte at a time.
	got, err := driveReader(tok, &oneByteReader{data: doc})
	if err != nil {
		t.Fatalf("byte-at-a-time: %v", err)
	}
	if !sameEvents(got, want[1:]) {
		t.Fatalf("byte-at-a-time:\ngot:  %v\nwant: %v", got, want[1:])
	}
}

// oneByteReader yields one byte per Read call.
type oneByteReader struct {
	data string
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}

// chunkReader yields at most n bytes per Read call.
type chunkReader struct {
	data string
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// transcript runs the tokenizer over r and renders every token — kind,
// names, attribute prefixes and values, text — with the input offset
// after it, and the error that ended the stream with its type, so that
// two runs compare exactly.
func transcript(tok *Tokenizer, r io.Reader) string {
	tok.Reset(r)
	var sb strings.Builder
	for {
		kind, err := tok.Next()
		if err != nil {
			fmt.Fprintf(&sb, "%T %v", err, err)
			return sb.String()
		}
		fmt.Fprintf(&sb, "%d@%d", kind, tok.InputOffset())
		switch kind {
		case StartElement:
			fmt.Fprintf(&sb, " %q", tok.Name())
			for _, a := range tok.Attr() {
				fmt.Fprintf(&sb, " %q:%q=%q", a.Prefix, a.Local, a.Value)
			}
		case EndElement:
			fmt.Fprintf(&sb, " %q", tok.Name())
		case CharData:
			fmt.Fprintf(&sb, " %q", tok.Text())
		}
		sb.WriteByte('\n')
	}
}

// FuzzChunkEquivalence holds the tokenizer to one result however its
// input is chunked: a whole-buffer reader, a one-byte reader and a 7-byte
// reader must give the same tokens, offsets and error, message and
// offset both. A one-byte reader never leaves a whole text run in the
// read buffer, so it always takes the copying path; the others return a
// read-buffer span wherever a run fits a chunk, which ties the fast path
// to its fallback.
func FuzzChunkEquivalence(f *testing.F) {
	for _, doc := range equivalenceCorpus {
		f.Add(doc)
	}
	tok := NewTokenizer()
	f.Fuzz(func(t *testing.T, doc string) {
		whole := transcript(tok, strings.NewReader(doc))
		for _, r := range []io.Reader{&oneByteReader{data: doc}, &chunkReader{data: doc, n: 7}} {
			if got := transcript(tok, r); got != whole {
				t.Fatalf("%T diverges from a whole-buffer read:\n%T:\n%s\nwhole:\n%s", r, r, got, whole)
			}
		}
	})
}

// TestTextAppendKeepsInput checks that appending to a Text result cannot
// overwrite input not yet read: a read-buffer span's capacity ends with
// the span.
func TestTextAppendKeepsInput(t *testing.T) {
	doc := "<a>plain<b/>more text</a>"
	want, err := driveStd(doc)
	if err != nil {
		t.Fatal(err)
	}
	tok := NewTokenizer()
	tok.Reset(strings.NewReader(doc))
	var got []event
	for {
		kind, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ev := event{kind: kind}
		switch kind {
		case StartElement, EndElement:
			ev.name = string(tok.Name())
		case CharData:
			ev.text = string(tok.Text())
			_ = append(tok.Text(), "<x>"...)
		}
		got = append(got, ev)
	}
	if !sameEvents(got, want) {
		t.Fatalf("got:  %v\nwant: %v", got, want)
	}
}

// TestASCIINameClass pins the table's ASCII name-byte class to
// encoding/xml's readName: letters, digits, '_', ':', '.' and '-'.
func TestASCIINameClass(t *testing.T) {
	for c := byte(0); c < utf8.RuneSelf; c++ {
		want := 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-'
		if got := asciiName[c]&nameCharByte != 0; got != want {
			t.Errorf("%q: name byte %v, want %v", c, got, want)
		}
	}
}

func TestTokenizerPrefixes(t *testing.T) {
	tok := NewTokenizer()
	tok.Reset(strings.NewReader(`<a xmlns:x="u" x:p="1" q="2" xmlns="d" :odd="3"/>`))
	kind, err := tok.Next()
	if err != nil || kind != StartElement {
		t.Fatalf("Next = %v, %v", kind, err)
	}
	attrs := tok.Attr()
	type pl struct{ prefix, local string }
	want := []pl{{"xmlns", "x"}, {"x", "p"}, {"", "q"}, {"", "xmlns"}, {"", ":odd"}}
	if len(attrs) != len(want) {
		t.Fatalf("got %d attrs, want %d", len(attrs), len(want))
	}
	for i, w := range want {
		if string(attrs[i].Prefix) != w.prefix || string(attrs[i].Local) != w.local {
			t.Errorf("attr %d = %q:%q, want %q:%q",
				i, attrs[i].Prefix, attrs[i].Local, w.prefix, w.local)
		}
	}
}

// TestTokenizerReuseAllocs verifies the whole point of the package: after
// warmup, tokenizing a document through a Reset tokenizer performs zero
// allocations.
func TestTokenizerReuseAllocs(t *testing.T) {
	doc := `<proteinDatabase><entry id="1"><name>abc&amp;def</name>` +
		`<organism>E. coli</organism><!-- note --><seq>MKV</seq></entry>` +
		`<entry id="2"><name>x</name></entry></proteinDatabase>`
	tok := NewTokenizer()
	r := strings.NewReader(doc)
	drain := func() {
		r.Reset(doc)
		tok.Reset(r)
		for {
			_, err := tok.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // warm buffers
	if allocs := testing.AllocsPerRun(50, drain); allocs > 0 {
		t.Errorf("tokenize allocated %.1f times per document, want 0", allocs)
	}
}

// FuzzStreamEquivalence cross-checks the raw token stream against
// encoding/xml on arbitrary bytes. The dtd-level differential target
// (FuzzTokenizerEquivalence) covers extraction state; this one catches
// divergence in tokens extraction happens to ignore.
func FuzzStreamEquivalence(f *testing.F) {
	for _, doc := range equivalenceCorpus {
		f.Add(doc)
	}
	tok := NewTokenizer()
	f.Fuzz(func(t *testing.T, doc string) {
		fastEvs, fastErr := driveTok(tok, doc)
		stdEvs, stdErr := driveStd(doc)
		if (fastErr != nil) != (stdErr != nil) {
			t.Fatalf("accept/reject mismatch: fast err = %v, std err = %v", fastErr, stdErr)
		}
		if !sameEvents(fastEvs, stdEvs) {
			t.Fatalf("token streams diverge:\nfast: %v\nstd:  %v", fastEvs, stdEvs)
		}
	})
}
