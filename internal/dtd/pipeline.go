package dtd

import (
	"context"
	"maps"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dtdinfer/internal/faultinject"
	"dtdinfer/internal/intern"
	"dtdinfer/internal/sample"
)

// Pipelined parallel ingestion. Decode workers claim contiguous shards
// and stage each one whole in worker-local symbol space (a fastShard),
// then hand the staged shard to the committer, which folds shards into
// the corpus in shard order while later shards are still decoding —
// shard k commits while k+1..N decode, so the serial commit overlaps the
// decode window instead of running as a tail after it.
//
// Memory bound: a run allocates at most workers+1 staging arenas, so at
// most that many shards are staged at once, whatever the batch's size.
// A staged shard holds its slice's distinct child sequences plus the
// per-element caps (maxTextSamples text samples, maxAttValues values per
// attribute), never the verbatim documents, so what it keeps never
// exceeds what the finished extraction keeps.
//
// Committed arenas recycle through a free list (reset bumps a
// generation; slots re-initialize lazily): a worker staging its next
// shard reuses the storage of one already committed, and once the cap
// is reached it waits for the committer to free one. A worker takes its
// arena before it claims a shard, so a claimed shard never waits for
// one: the lowest uncommitted shard is always staging or shipped, and
// committing it frees an arena. The committer waits on nothing but the
// handoff channel (one slot per worker), so neither wait can deadlock.

// PipelineStats instruments one pipelined ingestion call: where worker
// and committer time went, and how many staged shards were shipped.
// Counters are deterministic for a given batch and worker count except
// ArenaReuses (scheduling-dependent) and FlushUnits when cancellation or
// a FailFast failure cuts the run short; durations are wall-clock
// measurements and vary run to run. The report's ingestion counters and
// error lists stay fully deterministic — the stats ride alongside, they
// never feed back into the result.
type PipelineStats struct {
	// Workers is the number of decode workers; Shards the number of
	// contiguous corpus shards they claimed from.
	Workers int
	Shards  int
	// FlushUnits counts staged shards shipped to the committer: Shards
	// on a completed run.
	FlushUnits int
	// ArenaReuses counts shards whose staging arena came from the free
	// list of already-committed shards instead of a fresh allocation.
	ArenaReuses int
	// Decode sums, across workers, time spent decoding and staging.
	Decode time.Duration
	// FlushWait sums, across workers, time blocked on the committer:
	// handing a staged shard over a full channel, or waiting for it to
	// free an arena — the back-pressure a slow commit exerts.
	FlushWait time.Duration
	// Commit is the committer's time folding shards into the corpus.
	Commit time.Duration
	// CommitterIdle is the committer's time waiting for the next shard —
	// the overlap headroom still unused.
	CommitterIdle time.Duration
	// FinalMerge is the staging-extraction merge paid only when
	// batch-atomicity is armed (cancellable context or an armed
	// pipeline.commit fault); zero otherwise.
	FinalMerge time.Duration
	// Wall is the whole call's wall-clock time.
	Wall time.Duration
}

// stageMsg is one staged shard traveling from a worker to the committer,
// with the shard's report and its FailFast document error.
type stageMsg struct {
	shard  int
	worker int
	fast   *fastShard
	report IngestReport
	err    *DocumentError
}

type pipeline struct {
	ctx        context.Context
	docs       []Doc
	bounds     []int
	opts       *IngestOptions
	policy     ErrorPolicy
	shardCount int
	k          int                 // the target's context depth
	held       map[string][]string // text samples held before the run

	next        atomic.Int64 // next unclaimed shard index
	failedShard atomic.Int64 // lowest shard that hit FailFast (-1: committer abort)

	ch chan *stageMsg
	// free holds committed arenas awaiting reuse; arenas counts the
	// fresh ones requested, of which at most maxArenas are allocated.
	free      chan *fastShard
	arenas    atomic.Int64
	maxArenas int64

	// worker-side counters (atomics).
	decodeNs    atomic.Int64
	flushWaitNs atomic.Int64
	arenaReuses atomic.Int64
	// committer-side counters (committer goroutine only).
	commitNs        int64
	committerIdleNs int64
}

// getShard returns a staging arena: a committed one from the free list,
// else a fresh one while fewer than maxArenas exist, else the next one
// the committer frees.
func (p *pipeline) getShard() *fastShard {
	var sh *fastShard
	select {
	case sh = <-p.free:
	default:
		if p.arenas.Add(1) <= p.maxArenas {
			return &fastShard{}
		}
		t0 := time.Now()
		sh = <-p.free
		p.flushWaitNs.Add(int64(time.Since(t0)))
	}
	sh.reset()
	return sh
}

// ship hands a staged shard to the committer, accounting only the time
// a full channel keeps the worker blocked.
func (p *pipeline) ship(m *stageMsg) {
	select {
	case p.ch <- m:
		return
	default:
	}
	t0 := time.Now()
	p.ch <- m
	p.flushWaitNs.Add(int64(time.Since(t0)))
}

// worker claims shards and stages each one whole, shipping it with its
// report. The committer drains the channel until every worker is done,
// so a worker never blocks on a shipment forever; under cancellation it
// stops claiming shards, and the committer discards what arrives.
func (p *pipeline) worker(w int) {
	fi := newFastIngester(p.k, p.held)
	var sh *fastShard // the arena taken for the next shard
	defer func() {
		if sh != nil {
			p.free <- sh
		}
	}()
	for {
		if p.ctx.Err() != nil || p.next.Load() >= int64(p.shardCount) {
			return
		}
		if sh == nil {
			sh = p.getShard()
		}
		si := int(p.next.Add(1) - 1)
		if si >= p.shardCount {
			return
		}
		if p.policy == FailFast && int64(si) > p.failedShard.Load() {
			// A strictly earlier shard already failed; the in-order
			// commit would discard this one.
			continue
		}
		start := time.Now()
		msg := &stageMsg{shard: si, worker: w, fast: sh}
		if sh.epoch > 0 {
			p.arenaReuses.Add(1) // reset bumped a recycled arena's generation
		}
		sh = nil
		msg.err, _ = runIngest(fi, p.ctx, msg.fast, p.docs[p.bounds[si]:p.bounds[si+1]], p.bounds[si], p.opts, p.policy, &msg.report)
		p.decodeNs.Add(int64(time.Since(start)))
		if msg.err != nil && p.policy == FailFast {
			for {
				cur := p.failedShard.Load()
				if int64(si) >= cur || p.failedShard.CompareAndSwap(cur, int64(si)) {
					break
				}
			}
		}
		p.ship(msg)
	}
}

// commitTarget caches one element's commit destination in the target
// extraction: its sample.Set plus the worker-local-ID -> set-ID remap.
type commitTarget struct {
	set   *sample.Set
	remap intern.Remap
}

// workerCommit is the committer-owned commit state for one worker's
// symbol space, persisting across every shard that worker ships: worker
// IDs are dense and stable, so each distinct (worker, element, symbol)
// resolves its string exactly once per run and every repeat is a slice
// index.
type workerCommit struct {
	targets []commitTarget
	ids     []int32 // one sequence in its target set's IDs
}

// commitFastShard folds one staged shard into the target: with Merge,
// the only code that writes a corpus extraction during ingestion. It runs
// on the committer goroutine in shard order, or on the calling goroutine
// for the sequential path's one shard, resolving symbols from the shard's
// sealed name snapshot — never from the staging worker's live table.
// Sequences fold in the shard's first-seen order, so each element's set
// interns its symbols in document order, which is what keeps the result
// byte-identical whatever the worker count.
func commitFastShard(wc *workerCommit, sh *fastShard, target *Extraction) {
	for _, w := range sh.touched {
		for len(wc.targets) <= int(w) {
			wc.targets = append(wc.targets, commitTarget{})
		}
		if tgt := &wc.targets[w]; tgt.set == nil {
			tgt.set = target.sampleOf(sh.names[w])
		}
	}
	for i, n := 0, sh.seqs.Unique(); i < n; i++ {
		seq := sh.seqs.Seq(i)
		tgt := &wc.targets[seq[0]]
		wc.ids = wc.ids[:0]
		for _, cw := range seq[1:] {
			id := tgt.remap.Get(cw)
			if id < 0 {
				id = int32(tgt.set.Intern(sh.names[cw]))
				tgt.remap.Set(cw, id)
			}
			wc.ids = append(wc.ids, id)
		}
		tgt.set.AddIDs(wc.ids, sh.seqs.Count(i))
	}
	for _, w := range sh.touched {
		se := sh.perElem[w]
		name := sh.names[w]
		if se.hasText {
			target.HasText[name] = true
		}
		target.addTexts(name, se.texts)
		if se.textOverflow {
			target.TextOverflow[name] = true
		}
		for _, a := range se.attList {
			target.foldAttStats(name, a.name, &a.attStats)
		}
		if se.roots > 0 {
			target.Roots[name] += se.roots
		}
	}
	target.Documents += sh.documents
}

// committer holds the ordered-commit state driven by runPipeline's
// receive loop.
type committer struct {
	p      *pipeline
	target *Extraction
	states []workerCommit
	// msgs holds every shipped shard's message, indexed by shard; a nil
	// entry is a shard not yet shipped, or skipped under FailFast. Shards
	// from nextShard on, the lowest not yet committed, wait here for
	// their turn.
	msgs      []*stageMsg
	nextShard int
	// discard flips when the run stops committing (FailFast failure
	// committed, context dead, or an injected commit fault): every
	// further shard only recycles its arena.
	discard   bool
	commitErr error
}

// commit folds one shard; an armed pipeline.commit fault aborts the
// run instead, leaving the shard (and everything after it) uncommitted.
func (c *committer) commit(m *stageMsg) {
	if err := faultinject.Fire("pipeline.commit", strconv.Itoa(m.shard)); err != nil {
		c.commitErr = err
		c.discard = true
		// Let FailFast workers skip their remaining shards; the results
		// are all discarded from here on.
		c.p.failedShard.Store(-1)
		return
	}
	t0 := time.Now()
	commitFastShard(&c.states[m.worker], m.fast, c.target)
	c.p.commitNs += int64(time.Since(t0))
}

// receive records one shard's message and commits every shard now
// committable in shard order.
func (c *committer) receive(m *stageMsg) {
	c.msgs[m.shard] = m
	if c.p.ctx.Err() != nil {
		c.discard = true
	}
	if c.discard {
		c.p.free <- m.fast
		return
	}
	for !c.discard && c.nextShard < len(c.msgs) && c.msgs[c.nextShard] != nil {
		next := c.msgs[c.nextShard]
		c.commit(next)
		c.p.free <- next.fast
		if next.err != nil && c.p.policy == FailFast {
			// The in-order commit reached the earliest FailFast failure:
			// its shard committed the prefix before the failing document;
			// everything after is discarded.
			c.discard = true
		}
		c.nextShard++
	}
}

// runPipeline is the pipelined AddDocsParallelContext engine: it spawns
// the decode workers, runs the ordered committer on the calling
// goroutine, and assembles the deterministic report. See the package
// comment at the top of this file for the architecture and invariants.
func (x *Extraction) runPipeline(ctx context.Context, docs []Doc, bounds []int, workers int, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	shardCount := len(bounds) - 1
	p := &pipeline{
		ctx:        ctx,
		docs:       docs,
		bounds:     bounds,
		opts:       opts,
		policy:     policy,
		shardCount: shardCount,
		k:          x.k,
		// One slot per worker: a worker hands over a finished shard while
		// the committer is still folding another, and blocks (FlushWait)
		// only once the committer falls a full channel behind.
		ch: make(chan *stageMsg, workers),
		// One arena per worker plus one, so a worker can stage its next
		// shard while the committer folds its last. Every arena fits the
		// free list, so returning one never blocks.
		free:      make(chan *fastShard, workers+1),
		maxArenas: int64(workers + 1),
	}
	p.failedShard.Store(int64(shardCount))

	start := time.Now()
	// Batch atomicity: when the run can abort mid-commit (cancellable
	// context, or an armed pipeline.commit fault) the committer folds
	// into a staging extraction and x adopts it only on success — an
	// aborted run leaves x untouched by construction. With a Done-less
	// context and no armed fault nothing can abort a commit, so shards
	// fold straight into x and the call costs no final merge at all.
	target := x
	var staging *Extraction
	if ctx.Done() != nil || faultinject.ArmedAt("pipeline.commit") {
		staging = NewContextExtraction(x.k)
		target = staging
	}
	// Workers cap text staging by the room each element had before the
	// run. They must not read x while the committer writes it, so when
	// shards fold straight into x they read a copy of its sample lists.
	p.held = x.TextSamples
	if staging == nil {
		p.held = maps.Clone(p.held)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("dtd-pipeline", "decode-worker"), func(context.Context) {
				p.worker(w)
			})
		}(w)
	}
	go func() {
		wg.Wait()
		close(p.ch)
	}()

	c := &committer{
		p:      p,
		target: target,
		states: make([]workerCommit, workers),
		msgs:   make([]*stageMsg, shardCount),
	}
	pprof.Do(context.Background(), pprof.Labels("dtd-pipeline", "committer"), func(context.Context) {
		for {
			idle := time.Now()
			m, ok := <-p.ch
			p.committerIdleNs += int64(time.Since(idle))
			if !ok {
				return
			}
			c.receive(m)
		}
	})

	stats := &PipelineStats{
		Workers:       workers,
		Shards:        shardCount,
		ArenaReuses:   int(p.arenaReuses.Load()),
		Decode:        time.Duration(p.decodeNs.Load()),
		FlushWait:     time.Duration(p.flushWaitNs.Load()),
		Commit:        time.Duration(p.commitNs),
		CommitterIdle: time.Duration(p.committerIdleNs),
	}
	report := &IngestReport{Pipeline: stats}
	abort := ctx.Err()
	if abort == nil {
		abort = c.commitErr
	}
	// Tally the reports in shard order, so the report is as deterministic
	// as the run allows. A completed run stops at the earliest FailFast
	// failure, whose shard committed the documents before it.
	var derr *DocumentError
	for _, m := range c.msgs {
		if m != nil {
			stats.FlushUnits++
		}
	}
	for _, m := range c.msgs {
		if m == nil {
			continue // skipped: an earlier shard failed first under FailFast
		}
		report.add(&m.report)
		if abort == nil && m.err != nil && policy == FailFast {
			derr = m.err
			break
		}
	}
	if abort != nil {
		// Aborted run: the staging is discarded and x is untouched.
		stats.Wall = time.Since(start)
		return report, abort
	}
	if staging != nil {
		t0 := time.Now()
		if x.isEmpty() {
			// Fresh corpus: adopt the staging wholesale — byte-identical
			// to having committed into x directly, and free.
			*x = *staging
		} else {
			x.Merge(staging)
		}
		stats.FinalMerge = time.Since(t0)
	}
	report.TextOverflows = len(x.TextOverflow)
	stats.Wall = time.Since(start)
	if derr != nil {
		return report, derr
	}
	return report, nil
}
