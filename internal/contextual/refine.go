package contextual

import (
	"sort"
	"strings"

	"dtdinfer/internal/dtd"
)

// childContext returns the context a child element of name child has when
// its parent occurs in context c, keeping at most k ancestor segments.
func childContext(c Context, child string, k int) Context {
	return Context(dtd.ChildContext(string(c), child, k))
}

// refine splits the schema's types until contexts grouped together also
// agree on the type of every child — the bisimulation condition that makes
// one complexType per type well-defined when the schema is rendered as XML
// Schema. Initial groups come from local language equivalence; refinement
// is a standard partition refinement over the context graph.
func (s *Schema) refine(k int) {
	group := map[Context]*Type{}
	for c, t := range s.typeOf {
		group[c] = t
	}
	for {
		split := false
		for _, t := range s.Types {
			if len(t.Contexts) < 2 {
				continue
			}
			// Signature of a context: the current group of each child
			// context, per child symbol of the type's alphabet.
			sig := func(c Context) string {
				var parts []string
				var children []string
				switch {
				case t.Model != nil:
					children = t.Model.Symbols()
				case len(t.MixedNames) > 0:
					children = t.MixedNames
				}
				for _, child := range children {
					cc := childContext(c, child, k)
					ct := group[cc]
					if ct == nil {
						parts = append(parts, child+"=?")
						continue
					}
					parts = append(parts, child+"="+string(ct.Contexts[0]))
				}
				return strings.Join(parts, ";")
			}
			sigs := map[string][]Context{}
			for _, c := range t.Contexts {
				sigs[sig(c)] = append(sigs[sig(c)], c)
			}
			if len(sigs) < 2 {
				continue
			}
			// Split: keep the first signature's contexts on t, spawn new
			// types for the others.
			split = true
			keys := make([]string, 0, len(sigs))
			for key := range sigs {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			t.Contexts = sigs[keys[0]]
			for _, key := range keys[1:] {
				nt := &Type{
					Element:    t.Element,
					Kind:       t.Kind,
					Model:      t.Model,
					MixedNames: t.MixedNames,
					Contexts:   sigs[key],
				}
				sort.Slice(nt.Contexts, func(a, b int) bool { return nt.Contexts[a] < nt.Contexts[b] })
				s.Types = append(s.Types, nt)
				for _, c := range nt.Contexts {
					s.typeOf[c] = nt
					group[c] = nt
				}
			}
		}
		if !split {
			break
		}
	}
	s.renameAndSort()
}

// renameAndSort reassigns type names (bare element name when unique,
// numbered otherwise) and orders Types deterministically.
func (s *Schema) renameAndSort() {
	sort.Slice(s.Types, func(i, j int) bool {
		if s.Types[i].Element != s.Types[j].Element {
			return s.Types[i].Element < s.Types[j].Element
		}
		return s.Types[i].Contexts[0] < s.Types[j].Contexts[0]
	})
	count := map[string]int{}
	for _, t := range s.Types {
		count[t.Element]++
	}
	idx := map[string]int{}
	for _, t := range s.Types {
		if count[t.Element] == 1 {
			t.Name = t.Element
			continue
		}
		idx[t.Element]++
		t.Name = t.Element + "." + itoa(idx[t.Element])
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
