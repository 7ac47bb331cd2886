package dtd

import (
	"context"
	"io"
	"os"
	"runtime"
)

// Parallel sharded ingestion. The corpus is split into contiguous shards;
// each worker claims shards off a shared queue and stages their documents
// using the same per-document fault-isolation loop as the sequential
// path, under the same IngestOptions caps. A shard is staged entirely in
// the worker's private symbol space (fastShard): counted ID multisets per
// element, zero synchronization, no string interning beyond the worker's
// own table. Each staged shard streams to a committer that folds it
// into the corpus in shard order *while later shards are still decoding*
// — see pipeline.go for the streaming engine, its memory bound and the
// per-stage instrumentation it reports. The commit is the single place
// worker IDs are translated into the corpus extraction, through
// per-worker cached remaps (intern.Remap), so each distinct symbol's
// string is touched once per worker and everything else is slice
// indexing.
//
// Because every observation the extraction accumulates is a commutative
// set/counter union (2T-INF edge sets, occurrence counters, root tallies)
// and the order-sensitive parts (Sequences order, capped text samples and
// attribute values) are re-serialized by the in-order commit, the result
// is byte-identical to sequential ingestion of the same documents:
// Merge(a); Merge(b) equals ingesting a's then b's documents directly,
// and shards partition the batch in order. Reports are deterministic too
// — per-document errors carry original batch indexes and shards are
// contiguous, so concatenating shard reports in shard order reproduces
// the sequential report exactly.
//
// Under FailFast the committed prefix matches sequential FailFast: shards
// before the earliest failing document commit in full, the failing shard
// commits its documents preceding the failure, and everything after is
// discarded. The only observable difference from sequential FailFast is
// that readers of later documents may already have been partially consumed
// by workers before the failure surfaced.

// shardsPerWorker oversubscribes the shard queue so a worker that lands on
// cheap documents can steal further shards instead of idling.
const shardsPerWorker = 4

// sizeHint returns a document's byte size when cheaply knowable
// (in-memory readers with Len, regular files), else -1. Used only for
// load balancing; a wrong hint skews shard sizes, never results.
func sizeHint(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }:
		return int64(v.Len())
	case *os.File:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// shardBounds cuts docs into shardCount contiguous shards of roughly
// equal *byte* weight — document counts make terrible shards when sizes
// are skewed, leaving one worker grinding a giant file while the rest
// idle. Documents without a size hint weigh the average of the known
// sizes; when nothing is knowable the split degrades to equal counts.
// Every shard gets at least one document (callers cap
// shardCount <= len(docs)): the weight loop only places the cuts, and the
// normalization passes below make the at-least-one guarantee structural
// rather than a property of where the weights happen to fall. Any
// contiguous partition preserves the parallel-equals-sequential
// guarantee, so bounds only affect load balance.
func shardBounds(docs []Doc, shardCount int) []int {
	bounds := make([]int, shardCount+1)
	sizes := make([]int64, len(docs))
	var known int64
	knownCount := 0
	for i, d := range docs {
		sizes[i] = sizeHint(d.R)
		if sizes[i] >= 0 {
			known += sizes[i]
			knownCount++
		}
	}
	if knownCount == 0 {
		for i := range bounds {
			bounds[i] = i * len(docs) / shardCount
		}
		return bounds
	}
	avg := known / int64(knownCount)
	if avg <= 0 {
		avg = 1
	}
	var total int64
	for i := range sizes {
		if sizes[i] < 0 {
			sizes[i] = avg
		}
		if sizes[i] == 0 {
			sizes[i] = 1
		}
		total += sizes[i]
	}
	s := 1
	var cum int64
	for i := 0; i < len(docs) && s < shardCount; i++ {
		cum += sizes[i]
		if cum*int64(shardCount) >= total*int64(s) {
			bounds[s] = i + 1
			s++
		}
	}
	for ; s <= shardCount; s++ {
		bounds[s] = len(docs)
	}
	// Normalize: a forward pass reserves at least one document for every
	// shard before a cut, a backward pass reserves one for every shard
	// after it. On any weight distribution that already yields non-empty
	// shards both passes are no-ops; on degenerate ones (all weight in the
	// first or last documents) they shift cuts minimally. After the two
	// passes s <= bounds[s] <= bounds[s+1]-1 holds for every interior cut,
	// so bounds is strictly increasing and no shard is empty.
	for s := 1; s < shardCount; s++ {
		if bounds[s] < s {
			bounds[s] = s
		}
	}
	for s := shardCount - 1; s >= 1; s-- {
		if bounds[s] > bounds[s+1]-1 {
			bounds[s] = bounds[s+1] - 1
		}
	}
	return bounds
}

// AddDocumentsParallel ingests a batch of documents across workers
// goroutines (workers <= 0 selects runtime.GOMAXPROCS(0)), labeling
// documents by position. Semantics, report and resulting extraction are
// identical to AddDocuments.
func (x *Extraction) AddDocumentsParallel(docs []io.Reader, workers int, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	return x.AddDocsParallel(labelDocs(docs), workers, opts, policy)
}

// AddDocsParallel is AddDocumentsParallel with caller-supplied labels.
func (x *Extraction) AddDocsParallel(docs []Doc, workers int, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	return x.AddDocsParallelContext(context.Background(), docs, workers, opts, policy)
}

// AddDocumentsParallelContext is AddDocumentsParallel under a context,
// labeling documents by position. See AddDocsParallelContext for the
// cancellation contract.
func (x *Extraction) AddDocumentsParallelContext(ctx context.Context, docs []io.Reader, workers int, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	return x.AddDocsParallelContext(ctx, labelDocs(docs), workers, opts, policy)
}

// AddDocsParallelContext is AddDocsParallel under a context. Workers check
// the context before claiming each shard and inside every document's
// decode loop, so a cancelled call returns promptly with ctx.Err() and no
// lingering goroutines (the call still joins its workers before
// returning). Cancellation is batch-atomic: with a cancellable context
// the pipelined committer folds into a staging extraction that x adopts
// only on success, so a cancelled call — even one cancelled with shards
// already in the commit channel — leaves x exactly as it was. The
// returned report carries PipelineStats (per-stage wall and idle
// timings) when the pipelined path ran.
func (x *Extraction) AddDocsParallelContext(ctx context.Context, docs []Doc, workers int, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(docs) < 2 {
		return x.AddDocsContext(ctx, docs, opts, policy)
	}
	shardCount := workers * shardsPerWorker
	if shardCount > len(docs) {
		shardCount = len(docs)
	}
	if workers > shardCount {
		workers = shardCount
	}
	bounds := shardBounds(docs, shardCount)
	return x.runPipeline(ctx, docs, bounds, workers, opts, policy)
}
