package dtd

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The encoding/xml validator, kept as the differential-testing oracle for
// the xmltok one: the decode loop, content check and attribute check as
// they ran before validation moved to xmltok, renamed with a std prefix.
// The oracle tests and FuzzValidatorEquivalence hold the two to the same
// verdicts, violations and limit errors.

// stdValidateOptions is ValidateOptions as it ran on encoding/xml.
func (v *Validator) stdValidateOptions(r io.Reader, opts *IngestOptions) ([]Violation, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	mr := &meteredReader{r: r, max: o.MaxBytes}
	dec := xml.NewDecoder(mr)
	type frame struct {
		name     string
		children []string
		text     bool
	}
	var stack []frame
	var out []Violation
	var tokens int64
	seenIDs := map[string]bool{}
	var pendingRefs []idref
	report := func(name, reason string) {
		out = append(out, Violation{Element: name, Offset: dec.InputOffset(), Reason: reason})
	}
	for {
		tok, err := dec.Token()
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
			return out, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: dec.InputOffset()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return out, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: dec.InputOffset()}
			}
			name := t.Name.Local
			if len(stack) == 0 && name != v.dtd.Root {
				report(name, fmt.Sprintf("root is %s, DTD expects %s", name, v.dtd.Root))
			}
			if _, ok := v.dtd.Elements[name]; !ok {
				report(name, "element not declared in DTD")
			}
			pendingRefs = v.stdCheckAttributes(name, t.Attr, seenIDs, pendingRefs, dec.InputOffset(), report)
			if len(stack) > 0 {
				stack[len(stack)-1].children = append(stack[len(stack)-1].children, name)
			}
			stack = append(stack, frame{name: name})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.stdCheck(top.name, top.children, top.text, report)
		case xml.CharData:
			if len(stack) > 0 && strings.TrimSpace(string(t)) != "" {
				stack[len(stack)-1].text = true
			}
		}
	}
	if len(stack) != 0 {
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

// stdCheck is check as the encoding/xml loop called it.
func (v *Validator) stdCheck(name string, children []string, text bool, report func(name, reason string)) {
	e := v.dtd.Elements[name]
	if e == nil {
		return // already reported at the start tag
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
		allowed := map[string]bool{}
		for _, n := range e.MixedNames {
			allowed[n] = true
		}
		for _, c := range children {
			if !allowed[c] {
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

// stdCheckAttributes is checkAttributes over encoding/xml attributes.
func (v *Validator) stdCheckAttributes(name string, attrs []xml.Attr,
	seenIDs map[string]bool, pendingRefs []idref, offset int64,
	report func(name, reason string)) []idref {
	e := v.dtd.Elements[name]
	if e == nil {
		return pendingRefs
	}
	declared := map[string]*Attribute{}
	for _, a := range e.Attributes {
		declared[a.Name] = a
	}
	present := map[string]bool{}
	for _, attr := range attrs {
		an := attr.Name.Local
		if attr.Name.Space == "xmlns" || an == "xmlns" {
			continue
		}
		present[an] = true
		decl := declared[an]
		if decl == nil {
			report(name, fmt.Sprintf("attribute %s not declared", an))
			continue
		}
		switch decl.Type {
		case Enumerated:
			ok := false
			for _, val := range decl.Values {
				if attr.Value == val {
					ok = true
				}
			}
			if !ok {
				report(name, fmt.Sprintf("attribute %s value %q not in enumeration %v",
					an, attr.Value, decl.Values))
			}
		case ID:
			if seenIDs[attr.Value] {
				report(name, fmt.Sprintf("duplicate ID %q", attr.Value))
			}
			seenIDs[attr.Value] = true
		case IDREF:
			pendingRefs = append(pendingRefs, idref{
				element: name, attribute: an, value: attr.Value, offset: offset,
			})
		}
	}
	for _, a := range e.Attributes {
		if a.Required && !present[a.Name] {
			report(name, fmt.Sprintf("required attribute %s missing", a.Name))
		}
	}
	return pendingRefs
}
