package dtd

import (
	"fmt"
	"sort"
	"strings"

	"dtdinfer/internal/sample"
)

// Attribute inference extends the paper's element-content inference to
// <!ATTLIST> declarations, which any practical DTD inference tool needs.
// The heuristics mirror the spirit of the Section 9 datatype discussion:
//
//   - an attribute present on every occurrence of its element is
//     #REQUIRED, otherwise #IMPLIED;
//   - an attribute whose values are all distinct XML Names across a
//     sufficiently large sample is an ID candidate, and a candidate is an
//     ID unless another candidate's values rule it out (see idPools);
//   - an attribute whose values all come from the ID values of some ID
//     attribute is an IDREF;
//   - a small set of repeating name-token values becomes an enumeration;
//   - everything else is CDATA.

// AttType classifies an attribute declaration.
type AttType int

const (
	// CDATA is unrestricted character data.
	CDATA AttType = iota
	// NMTOKEN restricts values to name tokens.
	NMTOKEN
	// Enumerated restricts values to a fixed set.
	Enumerated
	// ID declares a document-unique identifier.
	ID
	// IDREF declares a reference to an ID.
	IDREF
)

func (t AttType) String() string {
	switch t {
	case CDATA:
		return "CDATA"
	case NMTOKEN:
		return "NMTOKEN"
	case Enumerated:
		return "enumeration"
	case ID:
		return "ID"
	case IDREF:
		return "IDREF"
	}
	return fmt.Sprintf("AttType(%d)", int(t))
}

// Attribute is one attribute declaration of an element.
type Attribute struct {
	// Name is the attribute name.
	Name string
	// Type classifies the values.
	Type AttType
	// Values is the sorted enumeration for Type Enumerated.
	Values []string
	// Required marks #REQUIRED (false renders #IMPLIED).
	Required bool
}

// String renders the attribute definition part of an <!ATTLIST>.
func (a *Attribute) String() string {
	typ := a.Type.String()
	if a.Type == Enumerated {
		typ = "(" + strings.Join(a.Values, "|") + ")"
	}
	use := "#IMPLIED"
	if a.Required {
		use = "#REQUIRED"
	}
	return fmt.Sprintf("%s %s %s", a.Name, typ, use)
}

// DeclareAttribute adds (or replaces) an attribute declaration on an
// element already declared in the DTD.
func (d *DTD) DeclareAttribute(element string, a *Attribute) {
	e := d.Elements[element]
	if e == nil {
		e = &Element{Name: element, Type: Empty}
		d.Declare(e)
	}
	for i, old := range e.Attributes {
		if old.Name == a.Name {
			e.Attributes[i] = a
			return
		}
	}
	e.Attributes = append(e.Attributes, a)
	sort.Slice(e.Attributes, func(i, j int) bool {
		return e.Attributes[i].Name < e.Attributes[j].Name
	})
}

// attStats accumulates per-element, per-attribute observations. The
// corpus, a document's stage and a shard's stage all keep this shape:
// values enter through add, or through insert once a lookup has missed.
type attStats struct {
	// present counts occurrences of the attribute.
	present int
	// overflow marks that the distinct-value cap was hit.
	overflow bool
	// vals holds the distinct observed values (capped) with their counts
	// in first-seen order, and idx maps a value to its slot. The order
	// decides which values survive the cap when statistics are folded,
	// so it is the order of observation; a loaded summary's is its stored
	// sorted order.
	idx  map[string]int
	vals []valCount
}

// valCount is one distinct attribute value with its count.
type valCount struct {
	v string
	n int
}

// add folds n occurrences of v into the statistics under the
// distinct-value cap: a new value past the cap is dropped and only sets
// overflow. It reports whether v was kept, and whether it was new.
func (st *attStats) add(v string, n int) (kept, isNew bool) {
	if slot, ok := st.idx[v]; ok {
		st.vals[slot].n += n
		return true, false
	}
	if len(st.vals) >= maxAttValues {
		st.overflow = true
		return false, false
	}
	st.insert(v, n)
	return true, true
}

// insert appends v, which is absent and under the cap, with count n.
func (st *attStats) insert(v string, n int) {
	if st.idx == nil {
		st.idx = map[string]int{}
	}
	st.idx[v] = len(st.vals)
	st.vals = append(st.vals, valCount{v: v, n: n})
}

// reset empties the statistics, keeping allocated storage.
func (st *attStats) reset() {
	st.present = 0
	st.overflow = false
	clear(st.idx)
	st.vals = st.vals[:0]
}

const (
	maxAttValues = 256
	// minIDSample is the minimum number of observations before an
	// all-distinct attribute is promoted to ID.
	minIDSample = 3
	// maxEnumValues bounds enumeration size.
	maxEnumValues = 8
)

// Attribute-statistics fingerprints: the <!ATTLIST> sibling of the
// per-element sample fingerprints (sample.Multiset), letting cached
// inference passes skip attribute inference entirely when nothing
// attribute-relevant changed. Because attribute classification is
// cross-element — IDREF detection consults every element's ID value
// pools, and #REQUIRED compares presence counts against the element's
// occurrence total — the cached unit is the whole <!ATTLIST> pass under
// one global fingerprint, not a per-element entry.
//
// The per-element fingerprint is a pure function of the accumulated
// state: for each attribute, present·H_p + overflow·H_ov + Σ_v
// count(v)·H_v over its kept values, summed mod 2^64. The one mutation
// path, foldAttStats, adds exactly the delta it applies, so extractions
// reaching equal attribute state through different merge histories agree
// — the same remap-stability argument the sequence fingerprints make —
// and a snapshot decoder can recompute the fingerprint from the restored
// stats.
const (
	attPresentSeed  = 0x71c9d3a4b8e6f215
	attOverflowSeed = 0x2b7e151628aed2a6
	attValueSeed    = 0x452821e638d01377
)

// attNameHashes returns the three derived hashes of one attribute name:
// the presence, overflow and value-combining bases. One string hash,
// three cheap mixes.
func attNameHashes(att string) (hp, hov, hval uint64) {
	base := sample.HashString(att)
	return sample.Mix64(base ^ attPresentSeed), sample.Mix64(base ^ attOverflowSeed), base ^ attValueSeed
}

// attValueHash combines an attribute's value-base hash with one value.
func attValueHash(hval uint64, v string) uint64 {
	return sample.Mix64(hval ^ sample.HashString(v))
}

// attFpAdd folds a state delta into an element's attribute fingerprint.
func (x *Extraction) attFpAdd(elem string, h uint64, n int) {
	if x.attFp == nil {
		x.attFp = map[string]uint64{}
	}
	x.attFp[elem] += h * uint64(n)
}

// attStatsFingerprint computes one attribute's fingerprint contribution
// from its accumulated state — the closed form of the incremental
// maintenance, used by the snapshot decoder to rebuild fingerprints
// from restored statistics.
func attStatsFingerprint(att string, st *attStats) uint64 {
	hp, hov, hval := attNameHashes(att)
	fp := hp * uint64(st.present)
	if st.overflow {
		fp += hov
	}
	for _, vc := range st.vals {
		fp += attValueHash(hval, vc.v) * uint64(vc.n)
	}
	return fp
}

// attRulesSalt stands for the classification rules of the <!ATTLIST>
// pass in its fingerprint. A pass memoized under earlier rules, such as
// one in a summary saved before ID candidates were checked against each
// other, was fingerprinted without it, so it no longer matches and the
// pass reruns instead of replaying declarations the rules now reject.
// Change the value whenever the rules change.
const attRulesSalt = 0x9e3779b97f4a7c15

// attGlobalFp condenses everything the <!ATTLIST> pass can observe into
// one value: each attributed element contributes a mix of its name
// hash, its attribute-state fingerprint, and its occurrence total (the
// #REQUIRED denominator), and attRulesSalt stands for the rules.
// Elements with no attribute statistics cannot influence attribute
// inference and are excluded, so ingesting attribute-free documents does
// not invalidate the cache. O(#attributed elements) per inference pass.
func (x *Extraction) attGlobalFp() uint64 {
	g := uint64(attRulesSalt)
	for elem := range x.Attributes {
		total := 0
		if s := x.Sequences[elem]; s != nil {
			total = s.Total()
		}
		term := sample.HashString(elem)
		term = sample.Mix64(term ^ x.attFp[elem])
		term = sample.Mix64(term ^ uint64(total))
		g += term
	}
	return g
}

// attDecl is one replayable <!ATTLIST> declaration.
type attDecl struct {
	elem string
	a    *Attribute
}

// attListCache memoizes one complete <!ATTLIST> pass: the global
// attribute fingerprint it was computed under and the declarations it
// produced, in declaration order. Attributes replay pointer-shared —
// DTD values are immutable by convention, exactly like cached content
// models.
type attListCache struct {
	fp    uint64
	decls []attDecl
}

// inferAttributesCached is inferAttributes behind the global attribute
// fingerprint: when the fingerprint matches the cached pass, the
// declarations replay without re-running classification (no ID-pool
// rebuild, no per-value scans). It reports whether the pass was
// replayed, for InferStats observability.
func (x *Extraction) inferAttributesCached(d *DTD) bool {
	fp := x.attGlobalFp()
	if c := x.attCache; c != nil && c.fp == fp {
		for _, de := range c.decls {
			if d.Elements[de.elem] == nil {
				continue // same defensive skip as inferAttributes
			}
			d.DeclareAttribute(de.elem, de.a)
		}
		return true
	}
	x.inferAttributes(d)
	decls := harvestAttDecls(d)
	x.attCache = &attListCache{fp: fp, decls: decls}
	return false
}

// harvestAttDecls collects the declarations a fresh inference pass put
// on d, in deterministic element order, for replay by later passes.
func harvestAttDecls(d *DTD) []attDecl {
	var decls []attDecl
	names := make([]string, 0, len(d.Elements))
	for n := range d.Elements {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, a := range d.Elements[n].Attributes {
			decls = append(decls, attDecl{elem: n, a: a})
		}
	}
	return decls
}

// inferAttributes converts accumulated statistics into declarations on d.
func (x *Extraction) inferAttributes(d *DTD) {
	// First pass: find ID candidates and keep those that can be IDs.
	candidates := map[string]map[string]int{} // "elem attr" -> value index
	type key struct{ elem, att string }
	var keys []key
	for elem, atts := range x.Attributes {
		for name := range atts {
			keys = append(keys, key{elem, name})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].elem != keys[j].elem {
			return keys[i].elem < keys[j].elem
		}
		return keys[i].att < keys[j].att
	})
	for _, k := range keys {
		st := x.Attributes[k.elem][k.att]
		if isIDLike(st) {
			candidates[k.elem+" "+k.att] = st.idx
		}
	}
	ids := idPools(candidates)
	for _, k := range keys {
		st := x.Attributes[k.elem][k.att]
		if d.Elements[k.elem] == nil {
			continue // attribute on an element never closed? defensive
		}
		occurrences := 0
		if s := x.Sequences[k.elem]; s != nil {
			occurrences = s.Total()
		}
		a := &Attribute{
			Name:     k.att,
			Required: st.present == occurrences && occurrences > 0,
		}
		switch {
		case ids[k.elem+" "+k.att] != nil:
			a.Type = ID
		case x.isIDRefLike(k.elem, k.att, st, ids):
			a.Type = IDREF
		case isEnumLike(st):
			a.Type = Enumerated
			for _, vc := range st.vals {
				a.Values = append(a.Values, vc.v)
			}
			sort.Strings(a.Values)
		case allNMTokens(st):
			a.Type = NMTOKEN
		default:
			a.Type = CDATA
		}
		d.DeclareAttribute(k.elem, a)
	}
}

// isIDLike reports whether the attribute is an ID candidate: enough
// occurrences, all values distinct, and every value an XML Name, as
// XML 1.0 requires of ID values.
func isIDLike(st *attStats) bool {
	if st.overflow || st.present < minIDSample || len(st.vals) != st.present {
		return false
	}
	for _, vc := range st.vals {
		if !isName(vc.v) {
			return false
		}
	}
	return true
}

// idPools returns the ID candidates that can be IDs, with their value
// pools. XML 1.0 makes ID values unique across all ID attributes of a
// document, so a candidate whose values all occur in another candidate's
// pool is a reference to it, not an ID (two candidates with equal pools
// are both references, and neither is an ID); and two candidates whose
// pools share values without either containing the other cannot both be
// IDs, so both are dropped.
func idPools(candidates map[string]map[string]int) map[string]map[string]int {
	ids := map[string]map[string]int{}
	for c, pool := range candidates {
		ok := true
		for o, other := range candidates {
			if o == c {
				continue
			}
			shared := 0
			for v := range pool {
				if _, in := other[v]; in {
					shared++
				}
			}
			if shared == len(pool) || (shared > 0 && shared < len(other)) {
				ok = false
				break
			}
		}
		if ok {
			ids[c] = pool
		}
	}
	return ids
}

// isIDRefLike reports whether every value of the attribute occurs in some
// ID attribute's value pool (of a different element/attribute).
func (x *Extraction) isIDRefLike(elem, att string, st *attStats, idPools map[string]map[string]int) bool {
	if st.overflow || len(st.vals) == 0 || !allNMTokens(st) {
		return false
	}
	self := elem + " " + att
	for pool, values := range idPools {
		if pool == self {
			continue
		}
		all := true
		for _, vc := range st.vals {
			if _, in := values[vc.v]; !in {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

func isEnumLike(st *attStats) bool {
	if st.overflow || len(st.vals) > maxEnumValues || len(st.vals) == 0 {
		return false
	}
	if !allNMTokens(st) {
		return false
	}
	// Each value must repeat: otherwise there is no evidence of a closed set.
	if st.present < 2*len(st.vals) {
		return false
	}
	for _, vc := range st.vals {
		if vc.n < 2 {
			return false
		}
	}
	return true
}

func allNMTokens(st *attStats) bool {
	for _, vc := range st.vals {
		if !isNameToken(vc.v) {
			return false
		}
	}
	return true
}

// isName reports whether the name token v is also a Name: it does not
// start with a digit, '.' or '-'.
func isName(v string) bool {
	return isNameToken(v) && !('0' <= v[0] && v[0] <= '9' || v[0] == '.' || v[0] == '-')
}

func isNameToken(v string) bool {
	if v == "" {
		return false
	}
	for _, r := range v {
		ok := r == '.' || r == '-' || r == '_' || r == ':' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}
