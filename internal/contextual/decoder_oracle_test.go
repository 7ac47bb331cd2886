package contextual

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"dtdinfer/internal/dtd"
)

// The encoding/xml contextual extraction, kept as the differential-testing
// oracle for the xmltok one: the decode loop as it ran before contextual
// ingestion moved to xmltok. TestContextualDecoderEquivalence and
// FuzzContextualDecoderEquivalence hold the two to the same acceptance
// and the same per-context state.

// extractOneStd is extractOne over encoding/xml.
func (x *Extraction) extractOneStd(r io.Reader, o dtd.IngestOptions) error {
	dec := xml.NewDecoder(dtd.MeterReader(r, o.MaxBytes))
	type frame struct {
		name     string
		ctx      Context
		children []string
	}
	var stack []frame
	var tokens int64
	names := map[string]bool{}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *dtd.LimitError
			if errors.As(err, &le) {
				return le
			}
			return fmt.Errorf("contextual: parsing XML: %w", err)
		}
		tokens++
		if o.MaxTokens > 0 && tokens > o.MaxTokens {
			return &dtd.LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: dec.InputOffset()}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return &dtd.LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: dec.InputOffset()}
			}
			name := t.Name.Local
			if !names[name] {
				if o.MaxNames > 0 && len(names) >= o.MaxNames {
					return &dtd.LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: dec.InputOffset()}
				}
				names[name] = true
			}
			if len(stack) == 0 {
				x.Roots[name]++
			} else {
				stack[len(stack)-1].children = append(stack[len(stack)-1].children, name)
			}
			ancestors := make([]string, len(stack))
			for i, f := range stack {
				ancestors[i] = f.name
			}
			stack = append(stack, frame{name: name, ctx: x.context(ancestors, name)})
		case xml.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x.Sequences[top.ctx] = append(x.Sequences[top.ctx], top.children)
		case xml.CharData:
			if len(stack) > 0 && strings.TrimSpace(string(t)) != "" {
				x.HasText[stack[len(stack)-1].ctx] = true
			}
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("contextual: unbalanced XML document")
	}
	return nil
}
