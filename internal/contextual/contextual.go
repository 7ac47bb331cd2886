// Package contextual implements the paper's stated future work (Sections
// 9-10): inference of schemas beyond DTD expressiveness, where the content
// model of an element may depend on its ancestors — "DTDs with vertical
// regular expressions", the structural core of XML Schema identified by
// Bex, Neven, Martens and Schwentick.
//
// The implementation realizes k-local typing: a context extraction
// (dtd.NewContextExtraction) collects example strings per context (the
// path suffix of up to k ancestor names), the DTD inference path infers a
// content model per context with any of the library's algorithms, and
// FromDTD merges contexts of the same element whose inferred languages
// coincide back together. A DTD corresponds to k = 0 (every element has
// one type); k = 1 distinguishes elements by their parent, which already
// covers the classic name-under-book versus name-under-author example and
// the single-type XSDs that dominate in practice.
package contextual

import (
	"fmt"
	"sort"
	"strings"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/regex"
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

// FromDTD builds the contextual schema from a DTD inferred over a context
// extraction of depth k (dtd.NewContextExtraction), whose declarations
// are named by context. Each declaration is one candidate type; the
// contexts of an element whose content languages coincide merge into one
// type, and refinement then splits types until contexts grouped together
// also agree on every child's type.
func FromDTD(d *dtd.DTD, k int) *Schema {
	contexts := make([]Context, 0, len(d.Elements))
	for c := range d.Elements {
		contexts = append(contexts, Context(c))
	}
	sort.Slice(contexts, func(i, j int) bool { return contexts[i] < contexts[j] })

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

	s := &Schema{Root: d.Root, typeOf: map[Context]*Type{}}
	for _, elem := range names {
		var groups []*Type
		for _, c := range byElement[elem] {
			e := d.Elements[string(c)]
			cand := &Type{Element: elem, Kind: e.Type, Model: e.Model, MixedNames: e.MixedNames}
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
	s.refine(k)
	return s
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
