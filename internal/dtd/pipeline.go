package dtd

import (
	"context"
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
// and stage them in worker-local symbol space exactly as before, but
// instead of parking every stage until the batch-wide join, each worker
// ships completed stages into a bounded channel as soon as they seal, and
// the committer folds them into the corpus in (shard, unit) order while
// later shards are still decoding — shard k commits while k+1..N decode,
// so the serial commit overlaps the decode window instead of running as
// a tail after it.
//
// Back-pressure and memory bound: every shipped-but-uncommitted stage
// holds one of its worker's unitsPerWorker in-flight tokens, which the
// committer returns when the stage is committed or discarded. A worker
// with no free token blocks before sealing its next unit, so at most
// workers x unitsPerWorker stages are live at any instant (the old code
// kept all shards staged simultaneously). The per-worker token pools are
// what make the bound deadlock-free: the producer of the lowest
// uncommitted shard only ever waits on its own tokens, and its shipped
// units are exactly the ones the committer can always fold next.
//
// Sub-shard flush units: a worker whose staged bytes cross
// shardFlushBytes seals a partial stage at a document boundary and keeps
// staging into a fresh arena, so a huge shard streams to the committer
// as several units instead of spiking at its end. Units of one shard
// arrive in ship order on the channel and commit in that order, so the
// fold replays document order exactly; byte-identity with sequential
// ingestion is unchanged (the per-element caps are enforced at fold
// time, not at staging time).
//
// Committed arenas recycle through a free list (reset bumps a
// generation; slots re-initialize lazily), keeping steady-state
// allocations flat however many units a corpus splits into.

// shardFlushBytes is the staged-byte budget after which a worker seals a
// partial stage (a flush unit) at the next document boundary. A package
// variable so tests can force many tiny units.
var shardFlushBytes = 4 << 20

// unitsPerWorker bounds one worker's live (shipped or staging, not yet
// committed) stage units — the C in the W+C memory bound.
const unitsPerWorker = 3

// PipelineStats instruments one pipelined ingestion call: where worker
// and committer time went, and how the batch was cut into flush units.
// Counters are deterministic for a given batch and worker count except
// ArenaReuses (scheduling-dependent) and FlushUnits when cancellation
// cuts the run short; durations are wall-clock measurements and vary run
// to run. The report's ingestion counters and error lists stay fully
// deterministic — the stats ride alongside, they never feed back into
// the result.
type PipelineStats struct {
	// Workers is the number of decode workers; Shards the number of
	// contiguous corpus shards they claimed from.
	Workers int
	Shards  int
	// FlushUnits counts stage units shipped to the committer (>= Shards:
	// every shard ships at least its final unit).
	FlushUnits int
	// ArenaReuses counts units whose staging arena came from the free
	// list of already-committed units instead of a fresh allocation.
	ArenaReuses int
	// Decode sums, across workers, time spent decoding and staging
	// (back-pressure waits excluded).
	Decode time.Duration
	// FlushWait sums, across workers, time blocked waiting for a free
	// in-flight unit slot — the back-pressure the committer exerts.
	FlushWait time.Duration
	// Commit is the committer's time folding units into the corpus.
	Commit time.Duration
	// CommitterIdle is the committer's time waiting for the next unit —
	// the overlap headroom still unused.
	CommitterIdle time.Duration
	// FinalMerge is the staging-extraction merge paid only when
	// batch-atomicity is armed (cancellable context or an armed
	// pipeline.commit fault); zero otherwise.
	FinalMerge time.Duration
	// Wall is the whole call's wall-clock time.
	Wall time.Duration
}

// stageMsg is one sealed stage unit traveling from a worker to the
// committer: fast is the unit's ID-space stage, and a final message
// additionally carries the shard's report and its FailFast document
// error. Every message holds one of its worker's in-flight tokens,
// returned by the committer on commit or discard.
type stageMsg struct {
	shard  int
	worker int
	fast   *fastShard
	final  bool
	report IngestReport
	err    *DocumentError
}

type pipeline struct {
	ctx        context.Context
	docs       []Doc
	bounds     []int
	opts       *IngestOptions
	policy     ErrorPolicy
	workers    int
	shardCount int

	next        int64 // next unclaimed shard index
	failedShard int64 // lowest shard that hit FailFast (-1: committer abort)

	ch       chan stageMsg
	inflight []chan struct{} // per-worker token pools, cap unitsPerWorker
	free     chan *fastShard // committed arenas awaiting reuse

	// worker-side counters (atomics).
	decodeNs    int64
	flushWaitNs int64
	flushUnits  int64
	arenaReuses int64
	// committer-side counters (committer goroutine only).
	commitNs        int64
	committerIdleNs int64
}

// acquire takes one in-flight-unit token, blocking under back-pressure
// and accounting the blocked time into waited; false means the context
// died first.
func (p *pipeline) acquire(tokens chan struct{}, waited *int64) bool {
	select {
	case <-tokens:
		return true
	default:
	}
	t0 := time.Now()
	select {
	case <-tokens:
		*waited += int64(time.Since(t0))
		return true
	case <-p.ctx.Done():
		*waited += int64(time.Since(t0))
		return false
	}
}

// getShard returns a staging arena, recycling a committed one when the
// free list has any.
func (p *pipeline) getShard() *fastShard {
	select {
	case sh := <-p.free:
		sh.reset()
		atomic.AddInt64(&p.arenaReuses, 1)
		return sh
	default:
		return &fastShard{}
	}
}

// release returns a message's token to its worker and recycles its arena.
// Capacities make both sends non-blocking: every in-flight message holds
// exactly one token, and free is sized for every token in the system.
func (p *pipeline) release(m stageMsg) {
	select {
	case p.free <- m.fast:
	default:
	}
	select {
	case p.inflight[m.worker] <- struct{}{}:
	default:
	}
}

// worker claims shards and decodes them, shipping sealed stage units as
// it goes. The afterDoc hook seals a partial unit whenever the staged
// bytes cross the flush budget; the final unit rides with the shard's
// report. A worker that observes cancellation while waiting for a token
// abandons its shard unshipped — the committer is in drain mode by then
// and the batch result is discarded anyway.
func (p *pipeline) worker(w int) {
	fi := newFastIngester()
	tokens := p.inflight[w]
	for {
		if p.ctx.Err() != nil {
			return
		}
		si := int(atomic.AddInt64(&p.next, 1) - 1)
		if si >= p.shardCount {
			return
		}
		if p.policy == FailFast && int64(si) > atomic.LoadInt64(&p.failedShard) {
			// A strictly earlier shard already failed; this shard's units
			// would be discarded by the in-order commit.
			continue
		}
		var waited int64
		if !p.acquire(tokens, &waited) {
			atomic.AddInt64(&p.flushWaitNs, waited)
			return
		}
		start := time.Now()
		msg := stageMsg{shard: si, worker: w, final: true}
		shardDocs := p.docs[p.bounds[si]:p.bounds[si+1]]
		fi.beginShard(p.getShard())
		fi.afterDoc = func() {
			if fi.shard.bytes < shardFlushBytes {
				return
			}
			if !p.acquire(tokens, &waited) {
				// Cancelled: keep staging in place; the decode loop
				// aborts at its next cancellation checkpoint.
				return
			}
			unit := fi.shard
			unit.sealNames(fi.names)
			atomic.AddInt64(&p.flushUnits, 1)
			p.ch <- stageMsg{shard: si, worker: w, fast: unit}
			fi.shard = p.getShard()
		}
		msg.err, _ = runIngest(fi, p.ctx, nil, shardDocs, p.bounds[si], p.opts, p.policy, &msg.report)
		fi.afterDoc = nil
		msg.fast = fi.shard
		msg.fast.sealNames(fi.names)
		fi.endShard()
		atomic.AddInt64(&p.decodeNs, int64(time.Since(start))-waited)
		atomic.AddInt64(&p.flushWaitNs, waited)
		if msg.err != nil && p.policy == FailFast {
			for {
				cur := atomic.LoadInt64(&p.failedShard)
				if int64(si) >= cur || atomic.CompareAndSwapInt64(&p.failedShard, cur, int64(si)) {
					break
				}
			}
		}
		atomic.AddInt64(&p.flushUnits, 1)
		p.ch <- msg
	}
}

// commitTarget caches one element's commit destination in the target
// extraction: its sample.Set plus the worker-local-ID -> set-ID remap.
type commitTarget struct {
	set   *sample.Set
	remap intern.Remap
}

// workerCommit is the committer-owned commit state for one worker's
// symbol space, persisting across every unit that worker ships: worker
// IDs are dense and stable, so each distinct (worker, element, symbol)
// resolves its string exactly once per run and every repeat is a slice
// index.
type workerCommit struct {
	targets []commitTarget
}

// commitFastShard folds one sealed stage unit into the target. It runs
// only on the committer goroutine, in (shard, unit) order, resolving
// symbols from the unit's sealed name snapshot — never from the staging
// worker's live table. Walking touched in first-touch order makes every
// corpus-level first sight happen in sequential document order, which is
// what keeps the result byte-identical to sequential ingestion.
func commitFastShard(wc *workerCommit, sh *fastShard, target *Extraction) {
	for _, w := range sh.touched {
		se := sh.perElem[w]
		name := sh.names[w]
		if se.ms.Unique() > 0 {
			for len(wc.targets) <= int(w) {
				wc.targets = append(wc.targets, commitTarget{})
			}
			tgt := &wc.targets[w]
			if tgt.set == nil {
				tgt.set = target.sampleOf(name)
			}
			before := tgt.set.ShapeFingerprint()
			tgt.set.MergeMultisetNames(&se.ms, sh.names, &tgt.remap)
			if tgt.set.ShapeFingerprint() != before {
				target.markDirty(name)
			}
		}
		if se.hasText && !target.HasText[name] {
			target.HasText[name] = true
			target.markDirty(name)
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
	p       *pipeline
	target  *Extraction
	states  []workerCommit
	pending map[int][]stageMsg
	reports map[int]*IngestReport
	derrs   map[int]*DocumentError
	// nextShard is the lowest shard whose final unit has not committed;
	// units of later shards buffer in pending until it completes.
	nextShard int
	// discard flips when the run stops committing (FailFast failure
	// committed, context dead, or an injected commit fault): every
	// further unit only returns its token.
	discard   bool
	commitErr error
}

// commitUnit folds one unit and returns its token; an armed
// pipeline.commit fault aborts the run instead, leaving the unit (and
// everything after it) uncommitted.
func (c *committer) commitUnit(m stageMsg) {
	if err := faultinject.Fire("pipeline.commit", strconv.Itoa(m.shard)); err != nil {
		c.commitErr = err
		c.discard = true
		// Let FailFast workers skip their remaining shards; the results
		// are all discarded from here on.
		atomic.StoreInt64(&c.p.failedShard, -1)
		c.p.release(m)
		return
	}
	t0 := time.Now()
	commitFastShard(&c.states[m.worker], m.fast, c.target)
	c.p.commitNs += int64(time.Since(t0))
	c.p.release(m)
}

// receive buffers one message and commits everything now committable in
// (shard, unit) order. Whenever the run stops committing it releases
// every buffered unit: a unit parked in pending holds its worker's
// in-flight token, and a worker blocked on a token under a Done-less
// context has no other way to wake up.
func (c *committer) receive(m stageMsg) {
	if c.p.ctx.Err() != nil {
		c.discard = true
	}
	if m.final {
		rep := m.report
		c.reports[m.shard] = &rep
		c.derrs[m.shard] = m.err
	}
	if c.discard {
		c.p.release(m)
		c.drainPending()
		return
	}
	c.pending[m.shard] = append(c.pending[m.shard], m)
	c.advance()
	if c.discard {
		c.drainPending()
	}
}

// advance commits every unit now committable in (shard, unit) order.
func (c *committer) advance() {
	for {
		q := c.pending[c.nextShard]
		if len(q) == 0 {
			return
		}
		delete(c.pending, c.nextShard)
		for i, u := range q {
			c.commitUnit(u)
			if c.discard {
				for _, rest := range q[i+1:] {
					c.p.release(rest)
				}
				return
			}
		}
		last := q[len(q)-1]
		if !last.final {
			return // shard still streaming; wait for its next unit
		}
		if c.derrs[c.nextShard] != nil && c.p.policy == FailFast {
			// The in-order commit reached the earliest FailFast failure:
			// its shard committed the prefix before the failing document;
			// everything after is discarded.
			c.discard = true
			return
		}
		c.nextShard++
	}
}

// drainPending releases every buffered unit of every shard, returning
// their workers' tokens. Called only once discard is set.
func (c *committer) drainPending() {
	for si, q := range c.pending {
		for _, u := range q {
			c.p.release(u)
		}
		delete(c.pending, si)
	}
}

// runPipeline is the pipelined AddDocsParallelContext engine: it spawns
// the decode workers, runs the ordered committer on the calling
// goroutine, and assembles the deterministic report. See the package
// comment at the top of this file for the architecture and invariants.
func (x *Extraction) runPipeline(ctx context.Context, docs []Doc, bounds []int, workers int, opts *IngestOptions, policy ErrorPolicy) (*IngestReport, error) {
	shardCount := len(bounds) - 1
	p := &pipeline{
		ctx:         ctx,
		docs:        docs,
		bounds:      bounds,
		opts:        opts,
		policy:      policy,
		workers:     workers,
		shardCount:  shardCount,
		failedShard: int64(shardCount),
		ch:          make(chan stageMsg, workers),
		inflight:    make([]chan struct{}, workers),
		free:        make(chan *fastShard, workers*unitsPerWorker),
	}
	for w := range p.inflight {
		tokens := make(chan struct{}, unitsPerWorker)
		for i := 0; i < unitsPerWorker; i++ {
			tokens <- struct{}{}
		}
		p.inflight[w] = tokens
	}

	start := time.Now()
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

	// Batch atomicity: when the run can abort mid-commit (cancellable
	// context, or an armed pipeline.commit fault) the committer folds
	// into a staging extraction and x adopts it only on success — an
	// aborted run leaves x untouched by construction. With a Done-less
	// context and no armed fault nothing can abort a commit, so units
	// fold straight into x and the call costs no final merge at all.
	target := x
	var staging *Extraction
	if ctx.Done() != nil || faultinject.ArmedAt("pipeline.commit") {
		staging = NewExtraction()
		target = staging
	}
	c := &committer{
		p:       p,
		target:  target,
		states:  make([]workerCommit, workers),
		pending: map[int][]stageMsg{},
		reports: map[int]*IngestReport{},
		derrs:   map[int]*DocumentError{},
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
		FlushUnits:    int(atomic.LoadInt64(&p.flushUnits)),
		ArenaReuses:   int(atomic.LoadInt64(&p.arenaReuses)),
		Decode:        time.Duration(atomic.LoadInt64(&p.decodeNs)),
		FlushWait:     time.Duration(atomic.LoadInt64(&p.flushWaitNs)),
		Commit:        time.Duration(p.commitNs),
		CommitterIdle: time.Duration(p.committerIdleNs),
	}
	report := &IngestReport{Pipeline: stats}
	fail := func(err error) (*IngestReport, error) {
		// Aborted run: tally the work done (in shard order, so the report
		// is as deterministic as the cut allows) and discard the staging;
		// x is untouched.
		for si := 0; si < shardCount; si++ {
			if r := c.reports[si]; r != nil {
				report.add(r)
			}
		}
		stats.Wall = time.Since(start)
		return report, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return fail(cerr)
	}
	if c.commitErr != nil {
		return fail(c.commitErr)
	}
	var derr *DocumentError
	for si := 0; si < shardCount; si++ {
		r := c.reports[si]
		if r == nil {
			continue // skipped: an earlier shard failed first under FailFast
		}
		report.add(r)
		if c.derrs[si] != nil && policy == FailFast {
			derr = c.derrs[si]
			break
		}
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
