// Package contextual implements the paper's stated future work (Sections
// 9-10): inference of schemas beyond DTD expressiveness, where the content
// model of an element may depend on its ancestors — "DTDs with vertical
// regular expressions", the structural core of XML Schema identified by
// Bex, Neven, Martens and Schwentick.
//
// The implementation realizes k-local typing: example strings are
// collected per context (the path suffix of up to k ancestor names), a
// content model is inferred per context with any of the library's
// algorithms, and contexts of the same element whose inferred languages
// coincide are merged back together. A DTD corresponds to k = 0 (every
// element has one type); k = 1 distinguishes elements by their parent,
// which already covers the classic name-under-book versus
// name-under-author example and the single-type XSDs that dominate in
// practice.
package contextual

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/xmltok"
)

// Context identifies where an element occurs: its name preceded by up to
// K ancestor names, joined by '/'. The root's context is just its name.
type Context string

// Element returns the element name of the context (its last segment).
func (c Context) Element() string {
	s := string(c)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// Extraction accumulates per-context observations from XML documents.
type Extraction struct {
	// K is the number of ancestor names kept in a context (default 1).
	K int
	// Sequences maps a context to the observed children sequences.
	Sequences map[Context][][]string
	// HasText marks contexts with non-whitespace character data.
	HasText map[Context]bool
	// Roots counts observed root element names.
	Roots map[string]int
}

// NewExtraction returns an empty accumulator with k ancestors of context
// (k = 0 reduces to plain DTD inference).
func NewExtraction(k int) *Extraction {
	return &Extraction{
		K:         k,
		Sequences: map[Context][][]string{},
		HasText:   map[Context]bool{},
		Roots:     map[string]int{},
	}
}

// AddDocument parses one XML document and accumulates its sequences. Like
// dtd.Extraction.AddDocument, the operation is failure-atomic: a document
// that fails mid-parse leaves the extraction unchanged.
func (x *Extraction) AddDocument(r io.Reader) error {
	return x.AddDocumentOptions(r, nil)
}

// AddDocumentOptions is AddDocument under the resource caps of
// dtd.IngestOptions (nil applies no limits), rejecting deeply nested or
// oversized documents with a *dtd.LimitError before they exhaust memory.
func (x *Extraction) AddDocumentOptions(r io.Reader, opts *dtd.IngestOptions) error {
	stage := NewExtraction(x.K)
	if err := stage.extractOne(r, opts); err != nil {
		return err
	}
	x.Merge(stage)
	return nil
}

// Merge folds another extraction's observations into x. The contexts of o
// must have been collected with the same K for the result to be coherent.
func (x *Extraction) Merge(o *Extraction) {
	for c, seqs := range o.Sequences {
		x.Sequences[c] = append(x.Sequences[c], seqs...)
	}
	for c, has := range o.HasText {
		if has {
			x.HasText[c] = true
		}
	}
	for name, n := range o.Roots {
		x.Roots[name] += n
	}
}

// extractOne runs the decode loop over one document on the structure
// tokenizer, mutating x directly; AddDocumentOptions runs it on a staging
// extraction for atomicity. The caps apply in the order package dtd
// applies them.
func (x *Extraction) extractOne(r io.Reader, opts *dtd.IngestOptions) error {
	var o dtd.IngestOptions
	if opts != nil {
		o = *opts
	}
	tok := xmltok.NewTokenizer()
	tok.Reset(dtd.MeterReader(r, o.MaxBytes))
	type frame struct {
		name     string
		ctx      Context
		children []string
	}
	var stack []frame
	var tokens int64
	names := map[string]bool{}
	for {
		kind, err := tok.Next()
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
			return &dtd.LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: tok.InputOffset()}
		}
		switch kind {
		case xmltok.StartElement:
			if o.MaxDepth > 0 && len(stack) >= o.MaxDepth {
				return &dtd.LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: tok.InputOffset()}
			}
			name := string(tok.Name())
			if !names[name] {
				if o.MaxNames > 0 && len(names) >= o.MaxNames {
					return &dtd.LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: tok.InputOffset()}
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
		case xmltok.EndElement:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x.Sequences[top.ctx] = append(x.Sequences[top.ctx], top.children)
		case xmltok.CharData:
			if len(stack) > 0 && len(bytes.TrimSpace(tok.Text())) != 0 {
				x.HasText[stack[len(stack)-1].ctx] = true
			}
		}
	}
	if len(stack) != 0 {
		return fmt.Errorf("contextual: unbalanced XML document")
	}
	return nil
}

func (x *Extraction) context(ancestors []string, name string) Context {
	k := x.K
	if k < 0 {
		k = 0
	}
	parts := []string{name}
	for i := len(ancestors) - 1; i >= 0 && len(parts) <= k; i-- {
		parts = append([]string{ancestors[i]}, parts...)
	}
	return Context(strings.Join(parts, "/"))
}

// Type is one inferred element type: a content kind shared by one or more
// contexts of the same element name.
type Type struct {
	// Name is the type's identifier, derived from the element name and a
	// counter when an element has several types (book.name, author.name
	// collapse to name when their models agree).
	Name string
	// Element is the element name this type describes.
	Element string
	// Kind and Model/MixedNames follow dtd.Element.
	Kind       dtd.ContentType
	Model      *regex.Expr
	MixedNames []string
	// Contexts lists the contexts assigned to this type, sorted.
	Contexts []Context
}

// Schema is a contextual schema: a set of types plus the assignment of
// contexts to types. When every element has exactly one type the schema
// is structurally a DTD.
type Schema struct {
	Root  string
	Types []*Type
	// typeOf maps each context to its type.
	typeOf map[Context]*Type
}

// InferSchema infers per-context content models with the given inferrer
// and merges contexts of an element whose languages coincide.
func (x *Extraction) InferSchema(infer dtd.InferFunc) (*Schema, error) {
	contexts := make([]Context, 0, len(x.Sequences))
	for c := range x.Sequences {
		contexts = append(contexts, c)
	}
	sort.Slice(contexts, func(i, j int) bool { return contexts[i] < contexts[j] })

	// Infer a candidate type per context.
	perContext := map[Context]*Type{}
	for _, c := range contexts {
		ty, err := x.inferOne(c, infer)
		if err != nil {
			return nil, err
		}
		perContext[c] = ty
	}

	// Group contexts by element and merge language-equivalent candidates.
	byElement := map[string][]Context{}
	for _, c := range contexts {
		byElement[c.Element()] = append(byElement[c.Element()], c)
	}
	names := make([]string, 0, len(byElement))
	for n := range byElement {
		names = append(names, n)
	}
	sort.Strings(names)

	s := &Schema{typeOf: map[Context]*Type{}}
	if root := mostFrequent(x.Roots); root != "" {
		s.Root = root
	}
	for _, elem := range names {
		var groups []*Type
		for _, c := range byElement[elem] {
			cand := perContext[c]
			merged := false
			for _, g := range groups {
				if sameType(g, cand) {
					g.Contexts = append(g.Contexts, c)
					s.typeOf[c] = g
					merged = true
					break
				}
			}
			if !merged {
				cand.Contexts = []Context{c}
				groups = append(groups, cand)
				s.typeOf[c] = cand
			}
		}
		for _, g := range groups {
			sort.Slice(g.Contexts, func(a, b int) bool { return g.Contexts[a] < g.Contexts[b] })
			s.Types = append(s.Types, g)
		}
	}
	// Partition refinement: groups must also agree on every child's type
	// so that the schema renders as one complexType per type.
	s.refine(x.K)
	return s, nil
}

func (x *Extraction) inferOne(c Context, infer dtd.InferFunc) (*Type, error) {
	seqs := x.Sequences[c]
	hasChildren := false
	childSet := map[string]bool{}
	for _, w := range seqs {
		if len(w) > 0 {
			hasChildren = true
		}
		for _, s := range w {
			childSet[s] = true
		}
	}
	ty := &Type{Element: c.Element()}
	switch {
	case !hasChildren && x.HasText[c]:
		ty.Kind = dtd.PCData
	case !hasChildren:
		ty.Kind = dtd.Empty
	case x.HasText[c]:
		ty.Kind = dtd.Mixed
		for s := range childSet {
			ty.MixedNames = append(ty.MixedNames, s)
		}
		sort.Strings(ty.MixedNames)
	default:
		model, err := infer(seqs)
		if err != nil {
			return nil, fmt.Errorf("contextual: inferring %s: %w", c, err)
		}
		ty.Kind = dtd.Children
		ty.Model = model
	}
	return ty, nil
}

func sameType(a, b *Type) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case dtd.Children:
		return automata.ExprEquivalent(a.Model, b.Model)
	case dtd.Mixed:
		return strings.Join(a.MixedNames, "|") == strings.Join(b.MixedNames, "|")
	default:
		return true
	}
}

func mostFrequent(counts map[string]int) string {
	best, bestN := "", -1
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if counts[n] > bestN {
			best, bestN = n, counts[n]
		}
	}
	return best
}

// TypeOf returns the type assigned to a context (nil when unobserved).
func (s *Schema) TypeOf(c Context) *Type { return s.typeOf[c] }

// MultiTypeElements returns the element names with more than one type —
// exactly the places where the schema exceeds DTD expressiveness.
func (s *Schema) MultiTypeElements() []string {
	count := map[string]int{}
	for _, t := range s.Types {
		count[t.Element]++
	}
	var out []string
	for n, c := range count {
		if c > 1 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// IsDTDExpressible reports whether every element has a single type, in
// which case ToDTD is lossless.
func (s *Schema) IsDTDExpressible() bool { return len(s.MultiTypeElements()) == 0 }

// ToDTD flattens the schema to a DTD by merging each element's types into
// one content model (union of the models). Lossless when every element has
// one type; otherwise the DTD is the best DTD over-approximation.
func (s *Schema) ToDTD() *dtd.DTD {
	d := dtd.New(s.Root)
	byElement := map[string][]*Type{}
	var names []string
	for _, t := range s.Types {
		if _, ok := byElement[t.Element]; !ok {
			names = append(names, t.Element)
		}
		byElement[t.Element] = append(byElement[t.Element], t)
	}
	sort.Strings(names)
	for _, n := range names {
		types := byElement[n]
		if len(types) == 1 {
			d.Declare(toDTDElement(types[0]))
			continue
		}
		// Merge: union of the children models (text/mixed kinds dominate).
		merged := &Type{Element: n, Kind: dtd.Children}
		var models []*regex.Expr
		for _, t := range types {
			switch t.Kind {
			case dtd.Children:
				models = append(models, t.Model)
			case dtd.Mixed, dtd.PCData:
				merged.Kind = dtd.Mixed
				merged.MixedNames = mergeNames(merged.MixedNames, t.MixedNames)
			}
		}
		if merged.Kind == dtd.Children && len(models) > 0 {
			merged.Model = regex.Simplify(regex.Union(models...))
		} else if len(models) == 0 && merged.Kind == dtd.Children {
			merged.Kind = dtd.Empty
		} else if merged.Kind == dtd.Mixed {
			// A text-bearing sibling forces mixed content; the element
			// models contributed by Children-kind siblings survive as
			// alternatives, not as dropped symbols.
			for _, m := range models {
				merged.MixedNames = mergeNames(merged.MixedNames, m.Symbols())
			}
			if len(merged.MixedNames) == 0 {
				merged.Kind = dtd.PCData
			}
		}
		d.Declare(toDTDElement(merged))
	}
	return d
}

func toDTDElement(t *Type) *dtd.Element {
	return &dtd.Element{
		Name:       t.Element,
		Type:       t.Kind,
		Model:      t.Model,
		MixedNames: t.MixedNames,
	}
}

func mergeNames(a, b []string) []string {
	set := map[string]bool{}
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		set[n] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the schema: one line per type with its contexts.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema root=%s\n", s.Root)
	for _, t := range s.Types {
		fmt.Fprintf(&b, "  type %s", t.Name)
		switch t.Kind {
		case dtd.Children:
			fmt.Fprintf(&b, " = (%s)", t.Model.DTDString())
		case dtd.Mixed:
			fmt.Fprintf(&b, " = (#PCDATA|%s)*", strings.Join(t.MixedNames, "|"))
		default:
			fmt.Fprintf(&b, " = %s", t.Kind)
		}
		fmt.Fprintf(&b, "   [%s]\n", contextsString(t.Contexts))
	}
	return b.String()
}

func contextsString(cs []Context) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = string(c)
	}
	return strings.Join(parts, ", ")
}
