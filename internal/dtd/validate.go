package dtd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/xmltok"
)

// Validator checks XML documents against a DTD, compiling each content
// model into a DFA once. Attribute declarations are enforced too: required
// attributes, enumeration membership, document-wide ID uniqueness, and
// IDREF resolution (every IDREF value must match some ID in the document).
//
// A Validator is immutable once built and safe for concurrent use: each
// call reads its document with a tokenizer of its own, so one compiled
// Validator can serve any number of goroutines at once.
type Validator struct {
	dtd  *DTD
	dfas map[string]*automata.DFA
}

// NewValidator compiles the DTD's content models.
func NewValidator(d *DTD) *Validator { return NewValidatorFrom(nil, d) }

// NewValidatorFrom is NewValidator for the next version of a schema prev
// validates: an element whose content model is unchanged since prev —
// the same *regex.Expr, as the model cache returns on a hit, or one
// equal to it under regex.Equal — shares prev's compiled DFA, and only
// the rest are compiled. A DFA is never written after compilation, so
// prev stays fully usable, by any number of goroutines, while and after
// the new validator is built. prev may be nil.
func NewValidatorFrom(prev *Validator, d *DTD) *Validator {
	v := &Validator{dtd: d, dfas: map[string]*automata.DFA{}}
	for name, e := range d.Elements {
		if e.Type != Children {
			continue
		}
		if prev != nil {
			if pe := prev.dtd.Elements[name]; pe != nil && pe.Type == Children &&
				(pe.Model == e.Model || regex.Equal(pe.Model, e.Model)) {
				v.dfas[name] = prev.dfas[name]
				continue
			}
		}
		v.dfas[name] = automata.FromExpr(e.Model)
	}
	return v
}

// Violation describes one validation failure.
type Violation struct {
	// Element is the offending element name.
	Element string
	// Offset is the decoder's input offset of the failure — a byte
	// position in the document, not a line number.
	Offset int64
	// Reason describes the failure.
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("element %s at offset %d: %s", v.Element, v.Offset, v.Reason)
}

// idref records one IDREF occurrence for the end-of-document resolution
// check (IDs may legally be declared after the references to them).
type idref struct {
	element   string
	attribute string
	value     string
	offset    int64
}

// Validate parses one document and returns all violations (nil when the
// document is valid). A document whose root differs from the DTD's root is
// a violation; undeclared elements are violations on their parent.
func (v *Validator) Validate(r io.Reader) ([]Violation, error) {
	return v.ValidateOptions(r, nil)
}

// ValidateOptions is Validate with resource caps on the decoder (depth,
// token and byte limits from IngestOptions; MaxNames is not checked since
// validation allocates per declared element, not per observed name). A
// violated cap aborts with a *LimitError, matchable with errors.Is
// against ErrLimit. The document is read with the xmltok tokenizer
// ingestion runs on, so a malformed one fails with the same
// "XML syntax error at offset N" an ingest of it reports.
func (v *Validator) ValidateOptions(r io.Reader, opts *IngestOptions) ([]Violation, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	mr := &meteredReader{r: r, max: o.MaxBytes}
	tok := xmltok.NewTokenizer()
	tok.Reset(mr)
	type frame struct {
		name string
		decl *Element // nil when undeclared
		// childStart is where this element's children start in children.
		childStart int
		nBinds     int // xmlns bindings made by the start tag
		text       bool
	}
	var stack []frame
	var children []string // the open elements' children, back to back
	var ns nsScope
	var out []Violation
	var tokens int64
	seenIDs := map[string]bool{}
	var pendingRefs []idref
	report := func(name, reason string) {
		out = append(out, Violation{Element: name, Offset: tok.InputOffset(), Reason: reason})
	}
	for {
		kind, err := tok.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return out, le
			}
			return out, fmt.Errorf("dtd: parsing XML: %w", err)
		}
		tokens++
		if o.MaxTokens > 0 && tokens > o.MaxTokens {
			return out, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: tok.InputOffset()}
		}
		switch kind {
		case xmltok.StartElement:
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return out, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: tok.InputOffset()}
			}
			decl, name := v.lookup(tok.Name())
			if len(stack) == 0 && name != v.dtd.Root {
				report(name, fmt.Sprintf("root is %s, DTD expects %s", name, v.dtd.Root))
			}
			if decl == nil {
				report(name, "element not declared in DTD")
			}
			nBinds := ns.open(tok.Attr())
			if decl != nil {
				pendingRefs = checkAttributes(decl, name, tok.Attr(), &ns, seenIDs, pendingRefs, tok.InputOffset(), report)
			}
			if len(stack) > 0 {
				children = append(children, name)
			}
			stack = append(stack, frame{name: name, decl: decl, childStart: len(children), nBinds: nBinds})
		case xmltok.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.check(top.decl, top.name, children[top.childStart:], top.text, report)
			children = children[:top.childStart]
			ns.close(top.nBinds)
		case xmltok.CharData:
			if n := len(stack); n > 0 && !stack[n-1].text && len(bytes.TrimSpace(tok.Text())) != 0 {
				stack[n-1].text = true
			}
		}
	}
	if len(stack) != 0 {
		// Unreachable in practice — the tokenizer turns EOF with open
		// elements into a syntax error — but kept as a backstop.
		return out, fmt.Errorf("dtd: unbalanced XML document")
	}
	// IDREFs resolve against the full document's ID set.
	for _, ref := range pendingRefs {
		if !seenIDs[ref.value] {
			out = append(out, Violation{
				Element: ref.element,
				Offset:  ref.offset,
				Reason: fmt.Sprintf("IDREF attribute %s value %q does not match any ID in the document",
					ref.attribute, ref.value),
			})
		}
	}
	return out, nil
}

// lookup returns the declaration of the element named b (nil when it is
// undeclared) and the name as a string: the declaration's own when it is
// spelled the same, so a declared element costs no allocation.
func (v *Validator) lookup(b []byte) (*Element, string) {
	e := v.dtd.Elements[string(b)]
	if e != nil && e.Name == string(b) {
		return e, e.Name
	}
	return e, string(b)
}

// check judges one closed element's content against its declaration e
// (nil when undeclared, which was reported at the start tag).
func (v *Validator) check(e *Element, name string, children []string, text bool, report func(name, reason string)) {
	if e == nil {
		return
	}
	switch e.Type {
	case Any:
	case Empty:
		if len(children) > 0 || text {
			report(name, "EMPTY element has content")
		}
	case PCData:
		if len(children) > 0 {
			report(name, fmt.Sprintf("(#PCDATA) element has child elements %v", children))
		}
	case Mixed:
		for _, c := range children {
			if !slices.Contains(e.MixedNames, c) {
				report(name, fmt.Sprintf("child %s not allowed in mixed content", c))
			}
		}
	case Children:
		if text {
			report(name, "character data not allowed in element content")
		}
		if !v.dfas[name].Member(children) {
			report(name, fmt.Sprintf("children %v do not match (%s)",
				children, e.Model.DTDString()))
		}
	}
}

// checkAttributes validates one start tag's attributes against the
// element's declaration e: undeclared names, missing required
// attributes, enumeration membership, and ID uniqueness within the
// document. Namespace declarations are skipped: attributes named xmlns
// and those in the "xmlns" space. IDREF values cannot be judged until the
// whole document's IDs are known, so they are appended to pendingRefs and
// the updated slice is returned for resolution at end of document.
func checkAttributes(e *Element, name string, attrs []xmltok.Attr, ns *nsScope,
	seenIDs map[string]bool, pendingRefs []idref, offset int64,
	report func(name, reason string)) []idref {
	skip := func(a *xmltok.Attr) bool { return string(a.Local) == "xmlns" || ns.inXmlnsSpace(a) }
	for i := range attrs {
		a := &attrs[i]
		if skip(a) {
			continue
		}
		decl := e.attribute(a.Local)
		if decl == nil {
			report(name, fmt.Sprintf("attribute %s not declared", a.Local))
			continue
		}
		switch decl.Type {
		case Enumerated:
			ok := false
			for _, val := range decl.Values {
				if string(a.Value) == val {
					ok = true
				}
			}
			if !ok {
				report(name, fmt.Sprintf("attribute %s value %q not in enumeration %v",
					a.Local, a.Value, decl.Values))
			}
		case ID:
			if seenIDs[string(a.Value)] {
				report(name, fmt.Sprintf("duplicate ID %q", a.Value))
			} else {
				seenIDs[string(a.Value)] = true
			}
		case IDREF:
			pendingRefs = append(pendingRefs, idref{
				element: name, attribute: decl.Name, value: string(a.Value), offset: offset,
			})
		}
	}
	for _, d := range e.Attributes {
		if !d.Required {
			continue
		}
		present := false
		for i := range attrs {
			if string(attrs[i].Local) == d.Name && !skip(&attrs[i]) {
				present = true
				break
			}
		}
		if !present {
			report(name, fmt.Sprintf("required attribute %s missing", d.Name))
		}
	}
	return pendingRefs
}

// attribute returns e's declaration of the attribute named b, the last
// one when a hand-built declaration repeats the name.
func (e *Element) attribute(b []byte) *Attribute {
	for i := len(e.Attributes) - 1; i >= 0; i-- {
		if e.Attributes[i].Name == string(b) {
			return e.Attributes[i]
		}
	}
	return nil
}

// ValidDocument is a convenience wrapper reporting only whether the
// document is valid.
func (v *Validator) ValidDocument(doc string) bool {
	vs, err := v.Validate(strings.NewReader(doc))
	return err == nil && len(vs) == 0
}
