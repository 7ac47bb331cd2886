package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dtdinfer/internal/dtd"
)

// Incremental inference and versioned snapshots (the paper's Section 9
// maintenance scenario). The dtd layer memoizes per-element content
// models under fingerprint validation; this file supplies the engine-
// configuration keys that make the cache safe across differently
// configured passes, and the Snapshot/Incremental types that publish
// each inference result as an immutable, monotonically versioned value
// readers can validate against while the next version is prepared.

// cacheConfig derives the model-cache configuration for one engine
// setup. The key must change whenever anything that can alter an
// engine's output for the same sample changes: the algorithm, the
// engine options, the numeric-predicate refinement, the budget (it can
// fail an engine mid-ladder), and the degradation mode. Rendering the
// option structs with %+v keeps the key exhaustive by construction —
// a new option field changes the key format rather than silently
// aliasing two configurations.
func cacheConfig(algo Algorithm, opts *Options) *dtd.CacheConfig {
	var o Options
	if opts != nil {
		o = *opts
	}
	key := fmt.Sprintf("%s|idtd:%+v|xtract:%+v|numeric:%t|budget:%+v|degrade:%d",
		algo, o.IDTD, o.XTRACT, o.NumericPredicates, o.Budget, o.Degrade)
	return &dtd.CacheConfig{Key: key, Counted: countSensitive(algo, &o)}
}

// countSensitive reports whether the configured engine's output can
// depend on sequence *multiplicities* rather than just the set of
// distinct sequences. Count-insensitive configurations validate cached
// models against the shape fingerprint, so bulk merges that only bump
// counts of already-seen shapes stay warm; count-sensitive ones use the
// counted fingerprint and recompute on any sample growth.
func countSensitive(algo Algorithm, o *Options) bool {
	if o.NumericPredicates {
		// r{m}/r{m,} bounds are computed from occurrence statistics.
		return true
	}
	switch algo {
	case CRX, TrangLike, StateElim, RewriteOnly:
		// Pure 2T-INF/partition constructions over the distinct
		// sequences; duplicates add nothing.
		return false
	case IDTD:
		// The repair rules run on the 2T-INF automaton (shape-only), but
		// a noise threshold prunes edges by occurrence support.
		return o.IDTD.NoiseThreshold > 0
	default:
		// XTRACT's MDL ranking weighs candidate frequency; unknown
		// engines get the conservative choice.
		return true
	}
}

// Snapshot is one published inference result: an immutable DTD with the
// stats of the pass that produced it, tagged with a monotonically
// increasing version. Snapshots are never mutated after publication —
// readers may hold one indefinitely while newer versions appear.
type Snapshot struct {
	// Version numbers successful publishes from 1; 0 never appears on a
	// published snapshot and can denote "nothing published yet".
	Version uint64
	// DTD is the inferred schema.
	DTD *dtd.DTD
	// Stats reports the inference pass, including cache traffic.
	Stats *dtd.InferStats
	// Documents is the extraction's document count at inference time.
	Documents int
}

// Incremental maintains a DTD over a growing corpus: ingest batches with
// AddDocs, publish a new immutable Snapshot with Refresh, read the
// latest with Current. Writers (AddDocs, Refresh) serialize on an
// internal mutex; Current is a lock-free atomic load, safe from any
// number of readers concurrent with ingestion and re-inference. A failed
// Refresh publishes nothing: readers keep the previous snapshot.
type Incremental struct {
	algo Algorithm
	opts Options

	mu  sync.Mutex // guards x and the prepare-publish sequence
	x   *dtd.Extraction
	cur atomic.Pointer[Snapshot]

	// Auto-persist state (see EnableAutoPersist). persistPath is
	// immutable after EnableAutoPersist; lastPersistErr is guarded by mu.
	persistPath    string
	persistRetry   RetryPolicy
	lastPersistErr error
}

// NewIncremental returns an empty incremental inferrer for the given
// engine configuration (opts may be nil; it is captured by value).
func NewIncremental(algo Algorithm, opts *Options) *Incremental {
	return NewIncrementalFromExtraction(dtd.NewExtraction(), algo, opts)
}

// NewIncrementalFromExtraction wraps an existing extraction — typically
// one recovered with LoadCorpus — so a restarted process resumes exactly
// where the persisted summary left off: the first Refresh replays the
// summary's warm caches, and subsequent ingestion dirties only what it
// changes. The extraction must not be used by the caller afterwards.
func NewIncrementalFromExtraction(x *dtd.Extraction, algo Algorithm, opts *Options) *Incremental {
	inc := &Incremental{algo: algo, x: x}
	if opts != nil {
		inc.opts = *opts
	}
	return inc
}

// AddDocs ingests one batch of documents into the accumulated
// extraction, sharded across opts.Parallelism workers, under the given
// caps and fault-isolation policy. It does not re-infer; call Refresh
// to publish a snapshot reflecting the new state.
func (inc *Incremental) AddDocs(ctx context.Context, docs []dtd.Doc, ingest *dtd.IngestOptions, policy dtd.ErrorPolicy) (*dtd.IngestReport, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.x.AddDocsParallelContext(ctx, docs, inc.opts.Parallelism, ingest, policy)
}

// Refresh runs an incremental inference pass over the accumulated
// extraction and, on success, publishes the result as the next snapshot
// version with an atomic swap. Elements whose samples are unchanged
// since the previous pass replay their cached content models without
// entering the engines. On error nothing is published — Current keeps
// returning the previous snapshot, whose version is unchanged — and the
// pass's partial cache fills still benefit the next Refresh.
func (inc *Incremental) Refresh(ctx context.Context) (*Snapshot, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	d, stats, err := InferDTDFromExtractionContext(ctx, inc.x, inc.algo, &inc.opts)
	if err != nil {
		return nil, err
	}
	version := uint64(1)
	if prev := inc.cur.Load(); prev != nil {
		version = prev.Version + 1
	}
	snap := &Snapshot{Version: version, DTD: d, Stats: stats, Documents: inc.x.Documents}
	inc.cur.Store(snap)
	if inc.persistPath != "" {
		inc.lastPersistErr = SaveCorpusRetry(inc.x, inc.persistPath, &inc.persistRetry)
	}
	return snap, nil
}

// EnableAutoPersist makes every subsequent successful Refresh save the
// accumulated corpus summary to path via SaveCorpusRetry under the given
// policy (nil = DefaultRetryPolicy). A persist failure never blocks the
// publish — readers get the new snapshot either way — and is reported by
// LastPersistError; the next Refresh (or PersistNow) tries again. Call
// before sharing the Incremental across goroutines.
func (inc *Incremental) EnableAutoPersist(path string, policy *RetryPolicy) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.persistPath = path
	if policy != nil {
		inc.persistRetry = *policy
	} else {
		inc.persistRetry = RetryPolicy{}
	}
}

// PersistNow saves the accumulated corpus summary to the auto-persist
// path immediately (one retried persist, same policy as Refresh), for
// final flushes on shutdown. It is an error if auto-persist is not
// enabled.
func (inc *Incremental) PersistNow() error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.persistPath == "" {
		return fmt.Errorf("core: PersistNow without EnableAutoPersist")
	}
	inc.lastPersistErr = SaveCorpusRetry(inc.x, inc.persistPath, &inc.persistRetry)
	return inc.lastPersistErr
}

// LastPersistError returns the outcome of the most recent auto-persist
// attempt (nil when it succeeded, or before any persist ran).
func (inc *Incremental) LastPersistError() error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.lastPersistErr
}

// MergeSummary folds another extraction — typically a corpus summary
// loaded with LoadCorpus or ReadCorpus, built from a disjoint document
// shard — into the accumulated state, exactly as if the shard's
// documents had been ingested here. Call Refresh to publish a snapshot
// reflecting the merged corpus.
func (inc *Incremental) MergeSummary(o *dtd.Extraction) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	inc.x.MergeSummary(o)
}

// Current returns the latest published snapshot (nil before the first
// successful Refresh). It never blocks: readers validate against the
// snapshot they loaded while writers prepare the next version.
func (inc *Incremental) Current() *Snapshot { return inc.cur.Load() }

// Extraction exposes the accumulated extraction for inspection. The
// caller must not mutate it concurrently with AddDocs or Refresh.
func (inc *Incremental) Extraction() *dtd.Extraction {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.x
}

// ChangeFeed renders what changed between two published snapshots as a
// one-line feed entry ("v3→v4: modified <order>, added <sku>"). A nil
// prev reports every element of next as added (the initial publish).
func ChangeFeed(prev, next *Snapshot) string {
	var from uint64
	var c dtd.ChangeSummary
	if prev != nil {
		from = prev.Version
		c = dtd.Changes(dtd.Diff(prev.DTD, next.DTD))
	} else {
		c = dtd.Changes(dtd.Diff(dtd.New(next.DTD.Root), next.DTD))
	}
	return dtd.FormatChangeFeed(from, next.Version, c)
}
