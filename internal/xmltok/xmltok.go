// Package xmltok is a structure-only streaming XML tokenizer for the
// DTD-inference ingestion hot path and for validation: both the DTD and
// the contextual validator read documents with it. It produces exactly
// the token stream extraction and validation need — element open/close
// names, attribute names and values, character-data runs — as byte
// slices that stay valid until the next call to Next, so a tokenizer
// that is Reset between documents performs no per-token allocations.
//
// Plain character data is not copied at all. A run that ends at a '<'
// inside the read buffer and holds no '&', '\r' or '>' is returned as a
// span of the read buffer: it has no entity to expand, no newline to
// normalize and no "]]>" to reject, so a copy would equal it; it is still
// checked against the XML Char production. Runs with entity references or
// carriage returns, runs containing '>', runs that cross a refill of the
// read buffer, CDATA sections and attribute values are copied into a
// reusable text buffer and processed as encoding/xml does. An element's
// raw name is validated once, at its start tag, and kept on the stack of
// open elements; an end tag whose raw name equals the innermost open one
// is not validated or split again, and only a different name, which is
// an error, goes through the checks that give encoding/xml's error text.
// Name validation looks ASCII bytes up in a table and decodes runes
// against the Appendix B range tables only from the first byte >= 0x80
// on. The read buffer is refilled only inside Next, which is what keeps a
// span valid until the next call.
//
// The accept/reject behaviour deliberately mirrors encoding/xml's strict
// mode byte for byte: the same documents parse, the same documents fail,
// tokens arrive with the same segmentation (comments and processing
// instructions split character data; a self-closing tag yields a start
// and an end event), entity references expand identically, and names
// are validated against the same XML 1.0 Appendix B character classes.
// That equivalence is what lets xmltok replace encoding/xml in production
// while the encoding/xml loops stay in the tests as differential-testing
// oracles; it is enforced by FuzzTokenizerEquivalence and
// FuzzContextualDecoderEquivalence for ingestion and by
// FuzzValidatorEquivalence for validation. FuzzChunkEquivalence ties the
// read-buffer span to the copying path it replaces: the same input read
// whole, one byte and seven bytes at a time must give the same tokens,
// offsets and errors. What xmltok drops is everything DTD inference and
// validation never look at: namespace URL resolution, charset
// conversion, token structs, and per-event string materialization.
package xmltok

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind identifies the token an advance of the tokenizer produced.
type Kind uint8

const (
	// EOF means the document ended cleanly (Next also returns io.EOF).
	EOF Kind = iota
	// StartElement is an opening tag; Name and Attr describe it.
	StartElement
	// EndElement is a closing tag (or the synthetic close of <a/>); Name
	// holds the local name.
	EndElement
	// CharData is one run of character data (possibly empty, for an empty
	// CDATA section); Text holds the processed bytes.
	CharData
	// Comment, ProcInst and Directive are structure-free tokens. Their
	// content is scanned for well-formedness but not retained — inference
	// ignores it — except that an <?xml?> declaration's version and
	// encoding are validated like encoding/xml does.
	Comment
	ProcInst
	Directive
)

// Attr is one attribute of a start tag. The slices point into the
// tokenizer's internal buffers and are valid only until the next call to
// Next. Prefix and Local follow encoding/xml's splitting rules: a name
// with more than one colon is rejected, and a leading or trailing colon
// keeps the whole raw name as the local part.
type Attr struct {
	Prefix []byte
	Local  []byte
	Value  []byte
}

// SyntaxError is a malformed-XML error at a byte offset.
type SyntaxError struct {
	Msg    string
	Offset int64
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("XML syntax error at offset %d: %s", e.Offset, e.Msg)
}

// errNotName signals that the next byte cannot start a name; nothing was
// consumed. Callers translate it into their contextual syntax error,
// exactly like encoding/xml's readName false return with no stored error.
var errNotName = errors.New("xmltok: not a name")

const readBufSize = 8 << 10

// Tokenizer is a pull tokenizer over one document. It is not safe for
// concurrent use. Reset prepares it for the next document reusing every
// internal buffer, which is what makes batch ingestion allocation-free.
type Tokenizer struct {
	r        io.Reader
	rbuf     []byte
	rpos     int
	rend     int
	srcErr   error // reader error, surfaced once buffered bytes drain
	nextByte int   // ungetc buffer; -1 when empty
	offset   int64 // bytes consumed
	err      error // sticky stream error

	// stack holds the open elements; their full raw names live
	// back-to-back in stackBuf so matching an end tag is one byte compare.
	stack    []elemFrame
	stackBuf []byte

	nameBuf   []byte // current end tag's raw name or PI target
	textBuf   []byte // copied text run / attribute value / PI content
	attrArena []byte // attr names and values of the current start tag
	attrSpans []attrSpan
	attrs     []Attr

	name      []byte // current event's local element name
	text      []byte // current event's character data
	needClose bool   // a self-closing tag owes its EndElement
}

type elemFrame struct {
	off, n   int // full raw name is stackBuf[off : off+n]
	localOff int // local part starts at off+localOff
}

type attrSpan struct {
	nameOff, nameLen int
	localOff         int // local part starts at nameOff+localOff
	valOff, valLen   int
}

// NewTokenizer returns a tokenizer with an empty input; call Reset.
func NewTokenizer() *Tokenizer {
	return &Tokenizer{rbuf: make([]byte, readBufSize), nextByte: -1}
}

// Reset prepares the tokenizer to read a new document from r, keeping
// all internal buffers.
func (t *Tokenizer) Reset(r io.Reader) {
	t.r = r
	t.rpos, t.rend = 0, 0
	t.srcErr = nil
	t.nextByte = -1
	t.offset = 0
	t.err = nil
	t.stack = t.stack[:0]
	t.stackBuf = t.stackBuf[:0]
	t.name = nil
	t.text = nil
	t.needClose = false
}

// Name returns the local name of the current StartElement or EndElement.
// The slice is valid until the next call to Next.
func (t *Tokenizer) Name() []byte { return t.name }

// Attr returns the current StartElement's attributes (xmlns declarations
// included). Valid until the next call to Next.
func (t *Tokenizer) Attr() []Attr { return t.attrs }

// Text returns the current CharData content: entities expanded, \r and
// \r\n normalized to \n, CDATA unwrapped. It may be a span of the read
// buffer rather than a copy; either way it is valid until the next call
// to Next.
func (t *Tokenizer) Text() []byte { return t.text }

// InputOffset returns the number of input bytes consumed so far.
func (t *Tokenizer) InputOffset() int64 { return t.offset }

// Depth returns the number of currently open elements.
func (t *Tokenizer) Depth() int { return len(t.stack) }

// Next advances to the next token. At clean end of input it returns
// (EOF, io.EOF); any other error is sticky. Ending the input with
// elements still open is a syntax error, like encoding/xml's Token.
func (t *Tokenizer) Next() (Kind, error) {
	if t.needClose {
		// The last tag was self-closing and we returned just the
		// StartElement half; deliver the EndElement half now.
		t.needClose = false
		top := t.stack[len(t.stack)-1]
		t.name = t.stackBuf[top.off+top.localOff : top.off+top.n]
		t.stack = t.stack[:len(t.stack)-1]
		t.stackBuf = t.stackBuf[:top.off]
		return EndElement, nil
	}
	if t.err != nil {
		return EOF, t.exposedErr()
	}
	kind, err := t.rawToken()
	if err != nil {
		t.err = err
		return EOF, t.exposedErr()
	}
	return kind, nil
}

// exposedErr maps the sticky stream error to what the caller should see:
// io.EOF with elements still open is a truncation.
func (t *Tokenizer) exposedErr() error {
	if t.err == io.EOF && len(t.stack) > 0 {
		t.err = t.syntaxError("unexpected EOF")
	}
	return t.err
}

func (t *Tokenizer) syntaxError(msg string) error {
	return &SyntaxError{Msg: msg, Offset: t.offset}
}

// fill loads the next chunk from the reader. A read that returns both
// data and an error serves the data first and parks the error, so a
// capped reader (the byte meter dtd ingestion reads through) fails the
// stream at exactly the same byte count as it does under encoding/xml's
// bufio.
func (t *Tokenizer) fill() bool {
	if t.srcErr != nil {
		return false
	}
	for {
		n, err := t.r.Read(t.rbuf)
		t.rpos, t.rend = 0, n
		if err != nil {
			t.srcErr = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
}

func (t *Tokenizer) getc() (byte, bool) {
	if t.nextByte >= 0 {
		b := byte(t.nextByte)
		t.nextByte = -1
		t.offset++
		return b, true
	}
	if t.rpos >= t.rend && !t.fill() {
		return 0, false
	}
	b := t.rbuf[t.rpos]
	t.rpos++
	t.offset++
	return b, true
}

func (t *Tokenizer) ungetc(b byte) {
	t.nextByte = int(b)
	t.offset--
}

// mustgetc is getc with end-of-input promoted to a syntax error, for
// positions where the document cannot validly end.
func (t *Tokenizer) mustgetc() (byte, error) {
	b, ok := t.getc()
	if !ok {
		return 0, t.inputEnded()
	}
	return b, nil
}

// inputEnded is the error for input that ends where the document cannot:
// a syntax error at EOF, or the reader's own error.
func (t *Tokenizer) inputEnded() error {
	if t.srcErr == io.EOF {
		return t.syntaxError("unexpected EOF")
	}
	return t.srcErr
}

// space skips leading XML whitespace.
func (t *Tokenizer) space() {
	for {
		if t.nextByte < 0 {
			for t.rpos < t.rend {
				switch t.rbuf[t.rpos] {
				case ' ', '\r', '\n', '\t':
					t.rpos++
					t.offset++
				default:
					return
				}
			}
		}
		b, ok := t.getc()
		if !ok {
			return
		}
		switch b {
		case ' ', '\r', '\n', '\t':
		default:
			t.ungetc(b)
			return
		}
	}
}

// peek returns the next input byte without consuming it.
func (t *Tokenizer) peek() (byte, bool) {
	if t.nextByte >= 0 {
		return byte(t.nextByte), true
	}
	if t.rpos >= t.rend && !t.fill() {
		return 0, false
	}
	return t.rbuf[t.rpos], true
}

func (t *Tokenizer) rawToken() (Kind, error) {
	b, ok := t.peek()
	if !ok {
		return EOF, t.srcErr
	}
	if b != '<' {
		// Text section.
		data, err := t.readText(-1, false)
		if err != nil {
			return EOF, err
		}
		t.text = data
		return CharData, nil
	}
	t.getc() // the peeked '<'
	if b, ok = t.peek(); !ok {
		return EOF, t.inputEnded()
	}
	switch b {
	case '/':
		t.getc()
		return t.endTag()
	case '?':
		t.getc()
		return t.procInst()
	case '!':
		t.getc()
		return t.bangToken()
	}
	return t.startTag()
}

// tagName reads and validates one raw name, appending it to dst (whose
// first start bytes are earlier content, e.g. previous attributes in the
// arena). It returns the updated buffer and the local-part offset within
// the appended name. errNotName means the next byte cannot start a name
// (nothing consumed) or the name has more than one colon.
func (t *Tokenizer) tagName(dst []byte, start int) ([]byte, int, error) {
	dst, err := t.readRawName(dst)
	if err != nil {
		return dst, 0, err
	}
	localOff, err := t.checkName(dst[start:])
	return dst, localOff, err
}

// checkName validates a raw name read by readRawName and returns the
// offset of its local part. errNotName means more than one colon, which
// callers report as their contextual error.
func (t *Tokenizer) checkName(name []byte) (int, error) {
	if !isName(name) {
		return 0, t.syntaxError("invalid XML name: " + string(name))
	}
	localOff, ok := nsplit(name)
	if !ok {
		return 0, errNotName
	}
	return localOff, nil
}

// readRawName appends one maximal run of name bytes to dst. The byte
// class matches encoding/xml's readName: ASCII name characters plus any
// byte >= 0x80 (full character validation happens in isName afterwards).
// An empty run is errNotName, with nothing consumed.
func (t *Tokenizer) readRawName(dst []byte) ([]byte, error) {
	start := len(dst)
	for {
		// Bulk-scan the read buffer.
		if t.nextByte < 0 {
			i := t.rpos
			for i < t.rend {
				if c := t.rbuf[i]; c < utf8.RuneSelf && asciiName[c]&nameCharByte == 0 {
					break
				}
				i++
			}
			if i > t.rpos {
				dst = append(dst, t.rbuf[t.rpos:i]...)
				t.offset += int64(i - t.rpos)
				t.rpos = i
			}
			if i < t.rend {
				break // stopped at a non-name byte, unconsumed
			}
		}
		b, err := t.mustgetc()
		if err != nil {
			return dst, err
		}
		if b < utf8.RuneSelf && asciiName[b]&nameCharByte == 0 {
			t.ungetc(b)
			break
		}
		dst = append(dst, b)
	}
	if len(dst) == start {
		return dst, errNotName
	}
	return dst, nil
}

// nsplit applies encoding/xml's prefix:local splitting to a validated
// raw name: more than one colon is rejected; an empty prefix or local
// part keeps the whole name as the local part.
func nsplit(name []byte) (localOff int, ok bool) {
	colon, colons := -1, 0
	for i, c := range name {
		if c == ':' {
			if colons++; colons > 1 {
				return 0, false
			}
			colon = i
		}
	}
	if colon <= 0 || colon == len(name)-1 {
		return 0, true
	}
	return colon + 1, true
}

func (t *Tokenizer) startTag() (Kind, error) {
	// The name is read straight onto the stack; a failed tag ends the
	// stream, and Reset truncates whatever it left there.
	off := len(t.stackBuf)
	var localOff int
	var err error
	t.stackBuf, localOff, err = t.tagName(t.stackBuf, off)
	if err == errNotName {
		return EOF, t.syntaxError("expected element name after <")
	}
	if err != nil {
		return EOF, err
	}
	t.attrArena = t.attrArena[:0]
	t.attrSpans = t.attrSpans[:0]
	empty := false
	for {
		t.space()
		b, err := t.mustgetc()
		if err != nil {
			return EOF, err
		}
		if b == '/' {
			if b, err = t.mustgetc(); err != nil {
				return EOF, err
			}
			if b != '>' {
				return EOF, t.syntaxError("expected /> in element")
			}
			empty = true
			break
		}
		if b == '>' {
			break
		}
		t.ungetc(b)

		var sp attrSpan
		sp.nameOff = len(t.attrArena)
		t.attrArena, sp.localOff, err = t.tagName(t.attrArena, sp.nameOff)
		if err == errNotName {
			return EOF, t.syntaxError("expected attribute name in element")
		}
		if err != nil {
			return EOF, err
		}
		sp.nameLen = len(t.attrArena) - sp.nameOff
		t.space()
		if b, err = t.mustgetc(); err != nil {
			return EOF, err
		}
		if b != '=' {
			return EOF, t.syntaxError("attribute name without = in element")
		}
		t.space()
		val, err := t.attrval()
		if err != nil {
			return EOF, err
		}
		sp.valOff = len(t.attrArena)
		sp.valLen = len(val)
		t.attrArena = append(t.attrArena, val...)
		t.attrSpans = append(t.attrSpans, sp)
	}
	// The arena is complete; materialize the attribute views.
	t.attrs = t.attrs[:0]
	for _, sp := range t.attrSpans {
		name := t.attrArena[sp.nameOff : sp.nameOff+sp.nameLen]
		a := Attr{
			Local: name[sp.localOff:],
			Value: t.attrArena[sp.valOff : sp.valOff+sp.valLen],
		}
		if sp.localOff > 0 {
			a.Prefix = name[:sp.localOff-1]
		}
		t.attrs = append(t.attrs, a)
	}
	t.stack = append(t.stack, elemFrame{off: off, n: len(t.stackBuf) - off, localOff: localOff})
	t.name = t.stackBuf[off+localOff:]
	t.needClose = empty
	return StartElement, nil
}

func (t *Tokenizer) attrval() ([]byte, error) {
	b, err := t.mustgetc()
	if err != nil {
		return nil, err
	}
	if b == '"' || b == '\'' {
		return t.readText(int(b), false)
	}
	return nil, t.syntaxError("unquoted or missing attribute value in element")
}

func (t *Tokenizer) endTag() (Kind, error) {
	var err error
	t.nameBuf, err = t.readRawName(t.nameBuf[:0])
	// A name that repeats the innermost open element's raw name byte for
	// byte was validated and split when that element opened; only another
	// name is checked here, and it is an error either way.
	var top elemFrame
	matched := false
	if n := len(t.stack); n > 0 && err == nil {
		top = t.stack[n-1]
		matched = string(t.stackBuf[top.off:top.off+top.n]) == string(t.nameBuf)
	}
	localOff := top.localOff
	if !matched && err == nil {
		localOff, err = t.checkName(t.nameBuf)
	}
	if err == errNotName {
		return EOF, t.syntaxError("expected element name after </")
	}
	if err != nil {
		return EOF, err
	}
	local := t.nameBuf[localOff:]
	t.space()
	b, err := t.mustgetc()
	if err != nil {
		return EOF, err
	}
	if b != '>' {
		return EOF, t.syntaxError("invalid characters between </" + string(local) + " and >")
	}
	if !matched {
		if len(t.stack) == 0 {
			return EOF, t.syntaxError("unexpected end element </" + string(local) + ">")
		}
		openLocal := string(t.stackBuf[top.off+top.localOff : top.off+top.n])
		if openLocal != string(local) {
			return EOF, t.syntaxError("element <" + openLocal + "> closed by </" + string(local) + ">")
		}
		return EOF, t.syntaxError("element <" + openLocal + "> closed by </" + string(local) + "> in another namespace prefix")
	}
	t.name = local
	t.stack = t.stack[:len(t.stack)-1]
	t.stackBuf = t.stackBuf[:top.off]
	return EndElement, nil
}

func (t *Tokenizer) procInst() (Kind, error) {
	var err error
	t.nameBuf, err = t.readRawName(t.nameBuf[:0])
	if err == errNotName {
		return EOF, t.syntaxError("expected target name after <?")
	}
	if err != nil {
		return EOF, err
	}
	if !isName(t.nameBuf) {
		return EOF, t.syntaxError("invalid XML name: " + string(t.nameBuf))
	}
	t.space()
	buf := t.textBuf[:0]
	var b0 byte
	for {
		b, err := t.mustgetc()
		if err != nil {
			t.textBuf = buf
			return EOF, err
		}
		buf = append(buf, b)
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	t.textBuf = buf
	data := buf[:len(buf)-2] // chop ?>
	if string(t.nameBuf) == "xml" {
		content := string(data)
		if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
			return EOF, fmt.Errorf("xmltok: unsupported version %q; only version 1.0 is supported", ver)
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return EOF, fmt.Errorf("xmltok: encoding %q declared but only utf-8 is supported", enc)
		}
	}
	return ProcInst, nil
}

// procInstParam extracts a pseudo-attribute from an <?xml?> declaration
// body, with the same permissive scan encoding/xml uses.
func procInstParam(param, s string) string {
	param = param + "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bangToken handles everything after "<!": comments, CDATA sections and
// directives (DOCTYPE and friends, including their internal subsets).
func (t *Tokenizer) bangToken() (Kind, error) {
	b, err := t.mustgetc()
	if err != nil {
		return EOF, err
	}
	switch b {
	case '-': // probably <!-- comment
		if b, err = t.mustgetc(); err != nil {
			return EOF, err
		}
		if b != '-' {
			return EOF, t.syntaxError("invalid sequence <!- not part of <!--")
		}
		var b0, b1 byte
		for {
			if b, err = t.mustgetc(); err != nil {
				return EOF, err
			}
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return EOF, t.syntaxError(`invalid sequence "--" not allowed in comments`)
				}
				break
			}
			b0, b1 = b1, b
		}
		return Comment, nil

	case '[': // probably <![CDATA[
		for i := 0; i < 6; i++ {
			if b, err = t.mustgetc(); err != nil {
				return EOF, err
			}
			if b != "CDATA["[i] {
				return EOF, t.syntaxError("invalid <![ sequence")
			}
		}
		data, err := t.readText(-1, true)
		if err != nil {
			return EOF, err
		}
		t.text = data
		return CharData, nil
	}

	// A directive. The content is scanned for well-formedness (quoted
	// angle brackets don't nest, embedded comments are skipped) but not
	// retained. The byte after "<!" is content, never quoting or nesting
	// — encoding/xml buffers it before its scan loop.
	inquote := byte(0)
	depth := 0
	for {
		if b, err = t.mustgetc(); err != nil {
			return EOF, err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	HandleB:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// in quotes, no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			// Look for <!-- to begin a comment.
			const s = "!--"
			for i := 0; i < len(s); i++ {
				if b, err = t.mustgetc(); err != nil {
					return EOF, err
				}
				if b != s[i] {
					// The matched prefix bytes are plain content; only
					// the mismatching byte gets control processing.
					depth++
					goto HandleB
				}
			}
			// Skip to the comment terminator.
			var b0, b1 byte
			for {
				if b, err = t.mustgetc(); err != nil {
					return EOF, err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
	return Directive, nil
}

// entityValue resolves the five predefined entities; a byte-keyed map
// lookup so the hot path allocates nothing.
var entityValue = map[string]string{
	"lt":   "<",
	"gt":   ">",
	"amp":  "&",
	"apos": "'",
	"quot": `"`,
}

// readText reads a text run into the shared text buffer: plain character
// data (quote < 0), a quoted attribute value (quote is the closing
// quote byte), or a CDATA section body (cdata). The control flow — entity
// expansion, \r / \r\n rewriting, the ]]> rules, the final character
// validation — mirrors encoding/xml's text() exactly; the performance
// difference is that runs of ordinary bytes are copied straight from the
// read buffer instead of one getc round trip per byte, and that character
// data whose first bulk scan ends at a buffered '<' is not copied at all.
func (t *Tokenizer) readText(quote int, cdata bool) ([]byte, error) {
	var b0, b1 byte
	trunc := 0
	buf := t.textBuf[:0]
	defer func() { t.textBuf = buf[:0] }()
Input:
	for {
		// Fast path: copy the maximal run of bytes that cannot affect
		// control flow, keeping b0/b1 tracking the last two raw bytes.
		if t.nextByte < 0 && t.rpos < t.rend {
			i := t.rpos
			for i < t.rend {
				c := t.rbuf[i]
				if c == '\r' || (quote < 0 && c == '>') ||
					(quote >= 0 && int(c) == quote) ||
					(!cdata && (c == '&' || c == '<')) {
					break
				}
				i++
			}
			if quote < 0 && !cdata && len(buf) == 0 && i < t.rend && t.rbuf[i] == '<' {
				// The whole run is buffered and holds no '&', '\r' or
				// '>', so a copy would equal it: return it in place. The
				// buffer refills only inside Next, which keeps the span
				// valid as long as Text promises; its capacity ends with
				// it, so a caller's append cannot overwrite unread input.
				span := t.rbuf[t.rpos:i:i]
				t.offset += int64(i - t.rpos)
				t.rpos = i
				if err := t.validateChars(span); err != nil {
					return nil, err
				}
				return span, nil
			}
			if i > t.rpos {
				span := t.rbuf[t.rpos:i]
				buf = append(buf, span...)
				if n := len(span); n >= 2 {
					b0, b1 = span[n-2], span[n-1]
				} else {
					b0, b1 = b1, span[0]
				}
				t.offset += int64(i - t.rpos)
				t.rpos = i
			}
		}
		b, ok := t.getc()
		if !ok {
			if cdata {
				if t.srcErr == io.EOF {
					return nil, t.syntaxError("unexpected EOF in CDATA section")
				}
				return nil, t.srcErr
			}
			break Input
		}

		// A CDATA section ends with ]]>; in ordinary text ]]> is an
		// error; in quoted strings it is allowed.
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				trunc = 2
				break Input
			}
			return nil, t.syntaxError("unescaped ]]> not in CDATA section")
		}

		// Stop reading text if we see a <.
		if b == '<' && !cdata {
			if quote >= 0 {
				return nil, t.syntaxError("unescaped < inside quoted string")
			}
			t.ungetc('<')
			break Input
		}
		if quote >= 0 && b == byte(quote) {
			break Input
		}
		if b == '&' && !cdata {
			// Entity reference up to the semicolon. Only the predefined
			// entities resolve; anything else is a strict-mode error,
			// matching a decoder with a nil Entity map.
			before := len(buf)
			buf = append(buf, '&')
			var text string
			var haveText bool
			b, err := t.mustgetc()
			if err != nil {
				return nil, err
			}
			if b == '#' {
				buf = append(buf, b)
				if b, err = t.mustgetc(); err != nil {
					return nil, err
				}
				base := 10
				if b == 'x' {
					base = 16
					buf = append(buf, b)
					if b, err = t.mustgetc(); err != nil {
						return nil, err
					}
				}
				start := len(buf)
				for '0' <= b && b <= '9' ||
					base == 16 && 'a' <= b && b <= 'f' ||
					base == 16 && 'A' <= b && b <= 'F' {
					buf = append(buf, b)
					if b, err = t.mustgetc(); err != nil {
						return nil, err
					}
				}
				if b != ';' {
					t.ungetc(b)
				} else {
					s := string(buf[start:])
					buf = append(buf, ';')
					n, perr := strconv.ParseUint(s, base, 64)
					if perr == nil && n <= unicode.MaxRune {
						text = string(rune(n))
						haveText = true
					}
				}
			} else {
				t.ungetc(b)
				var nerr error
				buf, nerr = t.readRawName(buf)
				if nerr != nil && nerr != errNotName {
					return nil, nerr
				}
				if b, err = t.mustgetc(); err != nil {
					return nil, err
				}
				if b != ';' {
					t.ungetc(b)
				} else {
					name := buf[before+1:]
					buf = append(buf, ';')
					if isName(name) {
						if v, ok := entityValue[string(name)]; ok {
							text = v
							haveText = true
						}
					}
				}
			}

			if haveText {
				buf = append(buf[:before], text...)
				b0, b1 = 0, 0
				continue Input
			}
			ent := string(buf[before:])
			if ent[len(ent)-1] != ';' {
				ent += " (no semicolon)"
			}
			return nil, t.syntaxError("invalid character entity " + ent)
		}

		// Rewrite unescaped \r and \r\n into \n. A \n right after \r is
		// consumed here, so the bulk scanner (which treats \n as an
		// ordinary byte) never sees one that should be skipped.
		if b == '\r' {
			buf = append(buf, '\n')
			if b2, ok2 := t.getc(); ok2 {
				if b2 == '\n' {
					b0, b1 = '\r', '\n'
					continue Input
				}
				t.ungetc(b2)
			}
			b0, b1 = b1, '\r'
			continue Input
		}
		buf = append(buf, b)
		b0, b1 = b1, b
	}
	data := buf[:len(buf)-trunc]

	if err := t.validateChars(data); err != nil {
		return nil, err
	}
	return data, nil
}

// validateChars rejects invalid UTF-8 and characters outside the XML
// character range, with an ASCII fast path.
func (t *Tokenizer) validateChars(data []byte) error {
	i := 0
	for i < len(data) {
		c := data[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 || c == 0x09 || c == 0x0A || c == 0x0D {
				i++
				continue
			}
			return t.syntaxError(fmt.Sprintf("illegal character code %U", rune(c)))
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return t.syntaxError("invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return t.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		i += size
	}
	return nil
}

// isInCharacterRange is the XML 1.0 Char production.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// isName reports whether s is a valid XML name per Appendix B. The ASCII
// prefix is classified through asciiName; only from the first byte >=
// utf8.RuneSelf on are runes decoded and looked up in the range tables.
func isName(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	class := uint8(nameStartByte)
	i := 0
	for ; i < len(s) && s[i] < utf8.RuneSelf; i++ {
		if asciiName[s[i]]&class == 0 {
			return false
		}
		class = nameCharByte
	}
	for i < len(s) {
		c, n := utf8.DecodeRune(s[i:])
		if c == utf8.RuneError && n == 1 {
			return false
		}
		if !unicode.Is(nameStart, c) && (i == 0 || !unicode.Is(nameExtra, c)) {
			return false
		}
		i += n
	}
	return true
}
