package contextual

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"dtdinfer/internal/dtd"
)

// The encoding/xml validator, kept as the differential-testing oracle for
// the xmltok one: the decode loop and content check as they ran before
// validation moved to xmltok, renamed with a std prefix.

// stdValidate is Validate as it ran on encoding/xml.
func (v *Validator) stdValidate(r io.Reader) ([]dtd.Violation, error) {
	dec := xml.NewDecoder(r)
	type frame struct {
		ctx      Context
		children []string
		text     bool
	}
	var stack []frame
	var out []dtd.Violation
	report := func(element, reason string) {
		out = append(out, dtd.Violation{Element: element, Offset: dec.InputOffset(), Reason: reason})
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, fmt.Errorf("contextual: parsing XML: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := t.Name.Local
			var ctx Context
			if len(stack) == 0 {
				if name != v.schema.Root {
					report(name, fmt.Sprintf("root is %s, schema expects %s", name, v.schema.Root))
				}
				ctx = Context(name)
			} else {
				top := &stack[len(stack)-1]
				top.children = append(top.children, name)
				ctx = childContext(top.ctx, name, v.k)
			}
			if v.schema.typeOf[ctx] == nil {
				report(name, fmt.Sprintf("no type for context %s", ctx))
			}
			stack = append(stack, frame{ctx: ctx})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v.stdCheck(top.ctx, top.children, top.text, report)
		case xml.CharData:
			if len(stack) > 0 && strings.TrimSpace(string(t)) != "" {
				stack[len(stack)-1].text = true
			}
		}
	}
	if len(stack) != 0 {
		return out, fmt.Errorf("contextual: unbalanced XML document")
	}
	return out, nil
}

// stdCheck is check as the encoding/xml loop called it.
func (v *Validator) stdCheck(ctx Context, children []string, text bool, report func(element, reason string)) {
	t := v.schema.typeOf[ctx]
	if t == nil {
		return // already reported
	}
	name := ctx.Element()
	switch t.Kind {
	case dtd.Empty:
		if len(children) > 0 || text {
			report(name, "EMPTY element has content")
		}
	case dtd.PCData:
		if len(children) > 0 {
			report(name, "text-only element has child elements")
		}
	case dtd.Mixed:
		allowed := map[string]bool{}
		for _, n := range t.MixedNames {
			allowed[n] = true
		}
		for _, c := range children {
			if !allowed[c] {
				report(name, fmt.Sprintf("child %s not allowed in mixed content", c))
			}
		}
	case dtd.Children:
		if text {
			report(name, "character data not allowed in element content")
		}
		if !v.dfas[t].Member(children) {
			report(name, fmt.Sprintf("children %v do not match type %s (%s)",
				children, t.Name, t.Model.DTDString()))
		}
	}
}
