package dtd

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dtdinfer/internal/regex"
	"dtdinfer/internal/sample"
)

// Incremental inference: repeated inference passes over a growing
// extraction skip the engines for every element whose sample has not
// changed. Eligibility is decided per element by comparing the sample's
// content fingerprint (see sample.Multiset) against the fingerprint the
// cached model was computed from, and by nothing else. Cached models are
// returned pointer-identical, so a warm pass renders byte-identically to
// the cold pass that populated the cache.

// CacheConfig identifies one engine configuration for the model cache.
// Two inference passes share cached models only when their Keys are
// equal, so the key must encode everything that can change an engine's
// output for the same sample: algorithm, engine options, budget,
// degradation mode. Counted selects the count-sensitive fingerprint for
// engines whose output depends on sequence multiplicities (noise
// thresholds, numeric predicates, support-weighted factoring); shape-only
// engines validate against the shape fingerprint and so stay warm across
// merges that only bump multiplicities of already-seen shapes.
type CacheConfig struct {
	Key     string
	Counted bool
}

// modelKey addresses one cached content model.
type modelKey struct {
	name   string
	config string
}

// modelCacheEntry is one memoized inference result: the fingerprint of
// the sample it was computed from, the accepted model, and the outcome
// that produced it (nil when the inferrer reported none). The outcome's
// Elapsed is always 0: the time is the computing pass's, not state, so
// it would keep equal extractions from saving equal bytes; a cache hit
// reports its own lookup time instead.
type modelCacheEntry struct {
	fp      uint64
	model   *regex.Expr
	outcome *ElementOutcome
}

// fingerprint returns the sample fingerprint cfg's cached models are
// validated against.
func (cfg *CacheConfig) fingerprint(s *sample.Set) uint64 {
	if cfg.Counted {
		return s.CountedFingerprint()
	}
	return s.ShapeFingerprint()
}

// InvalidateCache drops every memoized content model, forcing the next
// inference pass to run cold. Benchmarks use it to measure cold
// passes on a warm extraction; library callers normally never need it —
// fingerprint validation already invalidates per element.
func (x *Extraction) InvalidateCache() { x.cache = nil }

// InferDTDElementsCached infers a DTD from the accumulated sequences,
// memoizing each content model under cfg, which must not be nil.
// Elements seen with only text become (#PCDATA), with both text and
// children mixed content, and with neither EMPTY. Each element with
// children content is looked up in the extraction's model cache under
// (element, cfg.Key): a hit whose stored fingerprint matches the
// sample's current one returns the cached model without entering the
// engine or the degradation ladder; a mismatch recomputes and
// overwrites; an absent entry computes and fills. Engine
// work runs on a bounded worker pool, one element per task, and the
// result is deterministic regardless of scheduling. The context cancels
// the pool cooperatively — workers stop picking up elements and the
// first error returned is ctx.Err() — and is passed to every element
// inferrer, which layers per-element deadlines and budgets on top of it.
// Outcomes reported by the inferrer are collected into the stats in
// element order. Structural declarations and <!ATTLIST> inference are
// recomputed every pass, the latter unless its own fingerprint still
// matches (see inferAttributesCached). A failed or cancelled pass keeps
// the cache entries of the elements it did infer, so the next pass
// resumes from them. Passes on one extraction run one at a time.
func (x *Extraction) InferDTDElementsCached(ctx context.Context, cfg *CacheConfig, infer InferElementFunc) (*DTD, *InferStats, error) {
	start := time.Now()
	names := make([]string, 0, len(x.Sequences))
	for n := range x.Sequences {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("dtd: no elements observed")
	}
	stats := &InferStats{}
	// A pass reads and writes the memo state — model cache and ATTLIST
	// memo — so it holds the extraction's pass lock throughout.
	x.inferMu.Lock()
	defer x.inferMu.Unlock()
	if x.cache == nil {
		x.cache = map[modelKey]*modelCacheEntry{}
	}
	elements := make([]*Element, len(names))
	outcomes := make([]*ElementOutcome, len(names))
	errs := make([]error, len(names))
	timings := make([]ElementTiming, len(names))
	// Everything that needs no engine work — structural declarations and
	// fingerprint-valid cache hits — is served inline first; only
	// elements that must actually run an engine reach the worker pool. A
	// warm pass over an unchanged corpus therefore resolves every element
	// right here and spawns no goroutines at all: the pool's fan-out
	// costs more than the lookups it would perform.
	pending := make([]int, 0, len(names))
	for i, name := range names {
		t0 := time.Now()
		elem, outcome, served := x.serveInline(name, cfg, stats)
		if !served {
			pending = append(pending, i)
			continue
		}
		elements[i], outcomes[i] = elem, outcome
		timings[i] = ElementTiming{
			Name:      name,
			Sequences: x.Sequences[name].Total(),
			Duration:  time.Since(t0),
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, i := range pending {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			seqs := x.Sequences[name]
			model, outcome, err := infer(ctx, name, seqs)
			if err != nil {
				err = fmt.Errorf("dtd: inferring content model of %s: %w", name, err)
			} else {
				elements[i] = &Element{Name: name, Type: Children, Model: model}
			}
			outcomes[i], errs[i] = outcome, err
			timings[i] = ElementTiming{
				Name:      name,
				Sequences: seqs.Total(),
				Duration:  time.Since(t0),
			}
		}(i, names[i])
	}
	wg.Wait()
	// Stored after the pool joins, so the cache map needs no lock of its
	// own; samples do not change during a pass, so the fingerprint is the
	// one each model was computed from.
	for _, i := range pending {
		e := elements[i]
		if e == nil {
			continue
		}
		ent := &modelCacheEntry{fp: cfg.fingerprint(x.Sequences[e.Name]), model: e.Model}
		if o := outcomes[i]; o != nil {
			oc := *o
			oc.Elapsed = 0
			ent.outcome = &oc
		}
		x.cache[modelKey{name: e.Name, config: cfg.Key}] = ent
	}
	stats.Wall = time.Since(start)
	stats.PerElement = timings
	for _, o := range outcomes {
		if o != nil {
			stats.Outcomes = append(stats.Outcomes, *o)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	d := New(x.Root())
	for i, e := range elements {
		if errs[i] != nil {
			return nil, stats, errs[i]
		}
		d.Declare(e)
	}
	stats.AttListReplayed = x.inferAttributesCached(d)
	return d, stats, nil
}

// serveInline resolves one element without engine work when possible:
// structural declarations (EMPTY, #PCDATA, mixed — table lookups, never
// engines) and children-content elements whose cached model's stored
// fingerprint still matches the sample's.
// served=false means the element needs an engine run; the cache traffic
// (hit, miss or recompute) is counted into stats here.
func (x *Extraction) serveInline(name string, cfg *CacheConfig, stats *InferStats) (elem *Element, outcome *ElementOutcome, served bool) {
	seqs := x.Sequences[name]
	hasChildren := seqs.NumSymbols() > 0
	switch {
	case !hasChildren && x.HasText[name]:
		return &Element{Name: name, Type: PCData}, nil, true
	case !hasChildren:
		return &Element{Name: name, Type: Empty}, nil, true
	case x.HasText[name]:
		return &Element{Name: name, Type: Mixed, MixedNames: seqs.Symbols()}, nil, true
	}
	t0 := time.Now()
	ent, ok := x.cache[modelKey{name: name, config: cfg.Key}]
	switch {
	case !ok:
		stats.CacheMisses++
		return nil, nil, false
	case ent.fp != cfg.fingerprint(seqs):
		stats.CacheRecomputes++
		return nil, nil, false
	}
	stats.CacheHits++
	if ent.outcome != nil {
		oc := *ent.outcome
		oc.FromCache = true
		oc.Elapsed = time.Since(t0)
		outcome = &oc
	}
	return &Element{Name: name, Type: Children, Model: ent.model}, outcome, true
}
