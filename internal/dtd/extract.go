package dtd

import (
	"context"
	"io"
	"sort"
	"sync"
	"time"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// Extraction accumulates, over one or more XML documents, the child-element
// sequences observed under every element name — the positive example
// strings from which a DTD is inferred — plus whether non-whitespace text
// was seen and the root element names.
//
// A context extraction (NewContextExtraction) keys every per-element
// observation — sequences, text, attributes — by the
// element's context instead of its name: up to k ancestor names plus its
// own name, joined by '/' (see ChildContext). The children inside a
// sequence stay element names, and Roots stays keyed by name, which is
// also a root's context. Inference over it yields one declaration per
// context, the input of k-local contextual schemas.
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

	// cache memoizes inferred content models per (element, engine config),
	// each under the fingerprint it was computed from; see
	// InferDTDElementsCached. Lazily allocated.
	cache map[modelKey]*modelCacheEntry
	// attFp holds each element's attribute-statistics fingerprint, the
	// incremental mirror of attStatsFingerprint over its attributes;
	// attCache memoizes the last complete <!ATTLIST> pass under the
	// global fingerprint derived from attFp (see attributes.go). Both
	// lazily allocated.
	attFp    map[string]uint64
	attCache *attListCache
	// inferMu serializes inference passes, which read and write the
	// memo state above. A pointer, so adopting a staging extraction
	// wholesale (runPipeline) copies no lock.
	inferMu *sync.Mutex
	// k is the context depth, fixed at construction: 0 keys observations
	// by element name.
	k int
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
		x.cache == nil && len(x.attFp) == 0 && x.attCache == nil
}

// NewExtraction returns an empty accumulator keyed by element name.
func NewExtraction() *Extraction { return NewContextExtraction(0) }

// NewContextExtraction returns an empty accumulator keyed by contexts of
// k ancestor names (k <= 0 keys by element name, as NewExtraction does).
// Every staging extraction an ingestion builds on its behalf has the
// same depth, and Merge must only combine extractions of equal depth.
func NewContextExtraction(k int) *Extraction {
	return &Extraction{
		k:            max(k, 0),
		inferMu:      &sync.Mutex{},
		Sequences:    map[string]*sample.Set{},
		HasText:      map[string]bool{},
		TextSamples:  map[string][]string{},
		TextOverflow: map[string]bool{},
		Attributes:   map[string]map[string]*attStats{},
		Roots:        map[string]int{},
	}
}

// ChildContext returns the context of an element named child whose
// parent's context is parent, keeping k ancestor names. Element names
// never contain '/', so a context is never mistaken for a name.
func ChildContext(parent, child string, k int) string {
	if k <= 0 {
		return child
	}
	cut, n := 0, 0
	for i := len(parent) - 1; i >= 0; i-- {
		if parent[i] == '/' {
			if n++; n == k {
				cut = i + 1
				break
			}
		}
	}
	return parent[cut:] + "/" + child
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
	for _, w := range seqs {
		s.Add(w)
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
