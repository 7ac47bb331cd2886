package dtd

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// Extraction accumulates, over one or more XML documents, the child-element
// sequences observed under every element name — the positive example
// strings from which a DTD is inferred — plus whether non-whitespace text
// was seen and the root element names.
type Extraction struct {
	// Sequences maps an element name to the counted multiset of observed
	// children sequences. Sequences are deduplicated and symbol-interned
	// at ingestion, so repeated structures cost one count increment
	// instead of a stored copy, and inference consumes interned IDs
	// without re-interning strings.
	Sequences map[string]*sample.Set
	// HasText marks elements with non-whitespace character data.
	HasText map[string]bool
	// TextSamples keeps up to maxTextSamples trimmed text values per
	// element, for datatype detection when emitting XML Schema.
	TextSamples map[string][]string
	// TextOverflow marks elements whose TextSamples were truncated at the
	// cap: the kept samples are a prefix of the observed text values, not
	// the complete set. It mirrors the attribute statistics' overflow flag
	// so downstream datatype detection can distinguish "saw exactly these
	// values" from "saw at least these".
	TextOverflow map[string]bool
	// Attributes accumulates per-element attribute statistics for
	// <!ATTLIST> inference.
	Attributes map[string]map[string]*attStats
	// Roots counts observed document root names.
	Roots map[string]int
	// Documents counts processed documents.
	Documents int

	// dirty marks elements whose structural observations changed since the
	// last cached inference pass: a new distinct children shape (shape
	// fingerprint moved), a text flag flip, or an attribute-statistics
	// shape change (new attribute, new distinct value, overflow). Pure
	// multiplicity bumps of already-seen shapes and attribute presence
	// counts do not mark — which is what makes the bit cheap and lets a
	// merge of only-seen shapes leave an element clean. The bit is
	// observational (stats, DirtyElements); cache *correctness* rests on
	// per-element fingerprints, which count-sensitive engine configs
	// compare in counted form. Lazily allocated; cleared by a successful
	// cached inference.
	dirty map[string]bool
	// cache memoizes inferred content models per (element, engine config,
	// fingerprint); see InferDTDElementsCached. Lazily allocated.
	cache *modelCache
	// attFp holds each element's attribute-statistics fingerprint, the
	// incremental mirror of attStatsFingerprint over its attributes;
	// attCache memoizes the last complete <!ATTLIST> pass under the
	// global fingerprint derived from attFp (see attributes.go). Both
	// lazily allocated.
	attFp    map[string]uint64
	attCache *attListCache
}

const maxTextSamples = 100

// isEmpty reports whether the extraction holds no observations and no
// cache state — i.e. adopting another extraction wholesale is
// indistinguishable from having committed into this one directly. The
// pipelined committer uses it to skip the final staging merge when
// ingesting into a fresh corpus.
func (x *Extraction) isEmpty() bool {
	return len(x.Sequences) == 0 && len(x.HasText) == 0 &&
		len(x.TextSamples) == 0 && len(x.TextOverflow) == 0 &&
		len(x.Attributes) == 0 && len(x.Roots) == 0 && x.Documents == 0 &&
		len(x.dirty) == 0 && x.cache == nil &&
		len(x.attFp) == 0 && x.attCache == nil
}

// NewExtraction returns an empty accumulator.
func NewExtraction() *Extraction {
	return &Extraction{
		Sequences:    map[string]*sample.Set{},
		HasText:      map[string]bool{},
		TextSamples:  map[string][]string{},
		TextOverflow: map[string]bool{},
		Attributes:   map[string]map[string]*attStats{},
		Roots:        map[string]int{},
	}
}

// AddDocument parses one XML document and accumulates its sequences,
// without resource caps. The operation is failure-atomic: a document
// that fails mid-parse leaves the extraction unchanged, so incremental
// accumulators survive malformed inputs uncorrupted.
func (x *Extraction) AddDocument(r io.Reader) error {
	return x.AddDocumentOptions(r, nil)
}

// docStats counts one document's decoding work for the IngestReport.
type docStats struct {
	bytes    int64
	tokens   int64
	elements int64
}

// cancelCheckInterval is how many decoded tokens pass between cooperative
// cancellation checks in the decode loop — frequent enough that a
// cancelled ingestion of even a modest document returns promptly, rare
// enough that the check never shows up in a profile.
const cancelCheckInterval = 256

// markDirty records that an element's structural observations changed
// since the last cached inference pass.
func (x *Extraction) markDirty(name string) {
	if x.dirty == nil {
		x.dirty = map[string]bool{}
	}
	x.dirty[name] = true
}

// DirtyElements returns, sorted, the elements whose structural
// observations changed since the last successful cached inference pass
// (or since the extraction was created). See the dirty field for what
// counts as a change.
func (x *Extraction) DirtyElements() []string {
	names := make([]string, 0, len(x.dirty))
	for n := range x.dirty {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sampleOf returns the element's counted sample, creating it on first use.
func (x *Extraction) sampleOf(element string) *sample.Set {
	s := x.Sequences[element]
	if s == nil {
		s = sample.New()
		x.Sequences[element] = s
	}
	return s
}

// AddSequences injects pre-extracted strings for an element, used when the
// sample is generated directly as strings rather than documents. Duplicate
// sequences fold into multiplicity counts.
func (x *Extraction) AddSequences(element string, seqs [][]string) {
	s := x.sampleOf(element)
	before := s.ShapeFingerprint()
	for _, w := range seqs {
		s.Add(w)
	}
	if s.ShapeFingerprint() != before {
		x.markDirty(element)
	}
}

// Root returns the most frequent root element name.
func (x *Extraction) Root() string {
	best, bestN := "", -1
	names := make([]string, 0, len(x.Roots))
	for n := range x.Roots {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if x.Roots[n] > bestN {
			best, bestN = n, x.Roots[n]
		}
	}
	return best
}

// InferFunc turns a sample of strings into a content expression, the
// shape of inferrers that want verbatim strings.
type InferFunc = func(sample [][]string) (*regex.Expr, error)

// ElementOutcome records how one element's content model was obtained:
// which engine produced the accepted expression, whether (and from which
// engine) the inference degraded, why, and how long the whole attempt
// chain took. Engines are named by their algorithm strings so the dtd
// layer stays ignorant of the engine registry above it.
type ElementOutcome struct {
	// Name is the element name.
	Name string
	// Engine is the engine whose expression was accepted ("idtd", "crx",
	// "universal", ...).
	Engine string
	// DegradedFrom is the originally configured engine when Engine differs
	// from it; empty when the primary engine succeeded.
	DegradedFrom string
	// Cause explains the degradation ("deadline", "budget: ...", a panic
	// or engine error message); empty when the primary engine succeeded.
	Cause string
	// Elapsed is the wall-clock time of the whole attempt chain for this
	// element, including failed rungs.
	Elapsed time.Duration
	// FromCache marks an outcome replayed from the model cache: the
	// engine fields describe the pass that originally computed the model,
	// while Elapsed is this pass's (cache-lookup) cost.
	FromCache bool
}

// InferElementFunc turns one element's counted sample into a content
// expression, optionally reporting how (a nil outcome means the caller
// has nothing to record — e.g. a plain single-engine inferrer). The
// context carries cancellation and resource budgets downward.
type InferElementFunc = func(ctx context.Context, name string, s *sample.Set) (*regex.Expr, *ElementOutcome, error)

// InferDTDElements infers a DTD from the accumulated sequences: a
// bounded worker pool infers one content model per element from its
// counted sample, deterministically regardless of scheduling. Elements
// seen with only text become (#PCDATA), with both text and children
// mixed content, and with neither EMPTY. The context
// cancels the pool cooperatively — workers stop picking up elements and
// the first error returned is ctx.Err() — and is passed to every element
// inferrer, which layers per-element deadlines and budgets on top of it.
// Outcomes reported by the inferrer are collected into the stats in
// element order. No result memoization happens at this entry point; see
// InferDTDElementsCached.
func (x *Extraction) InferDTDElements(ctx context.Context, infer InferElementFunc) (*DTD, *InferStats, error) {
	return x.InferDTDElementsCached(ctx, nil, infer)
}

// inferElementOutcome derives one element's declaration. The inferrer is
// consulted only for children content; text-only, empty and mixed
// declarations are structural and never degrade (and are never cached —
// they cost map lookups, not engine runs).
func (x *Extraction) inferElementOutcome(ctx context.Context, name string, cfg *CacheConfig, cnt *cacheCounters, infer InferElementFunc) (*Element, *ElementOutcome, error) {
	seqs := x.Sequences[name]
	hasChildren := seqs.NumSymbols() > 0
	switch {
	case !hasChildren && x.HasText[name]:
		return &Element{Name: name, Type: PCData}, nil, nil
	case !hasChildren:
		return &Element{Name: name, Type: Empty}, nil, nil
	case x.HasText[name]:
		return &Element{Name: name, Type: Mixed, MixedNames: seqs.Symbols()}, nil, nil
	case cfg != nil:
		return x.inferChildrenCached(ctx, name, seqs, cfg, cnt, infer)
	default:
		model, outcome, err := infer(ctx, name, seqs)
		if err != nil {
			return nil, outcome, fmt.Errorf("dtd: inferring content model of %s: %w", name, err)
		}
		return &Element{Name: name, Type: Children, Model: model}, outcome, nil
	}
}
