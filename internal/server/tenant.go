package server

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/faultinject"
	"dtdinfer/internal/xsd"
)

// tenant is one named corpus. All mutation — ingestion, summary merges,
// persistence — happens on the single worker goroutine consuming queue,
// so the extraction never sees concurrent writers and persistence always
// snapshots a quiescent corpus. Reads never touch the worker: they load
// the immutable published artifacts with one atomic pointer read.
type tenant struct {
	name string
	srv  *Server
	inc  *core.Incremental

	// queue is the bounded ingest queue: handlers enqueue with a
	// non-blocking send and answer 429 when it is full. Never closed —
	// the worker exits via srv.stop after the queue is flushed.
	queue chan *job

	// published holds the artifacts rendered from the latest snapshot.
	published atomic.Pointer[published]

	// dirty is set when the corpus has advanced past the last persisted
	// summary, and cleared by a successful persist.
	dirty atomic.Bool

	// persistErr is the last persist failure (nil after success).
	persistErr atomic.Pointer[string]

	// quarantine records why this tenant's summary was quarantined at
	// boot, if it was; surfaced in /metrics and the status endpoint.
	quarantine atomic.Pointer[string]
}

// published is everything readers need, rendered once per publish so
// GET handlers do zero inference work: the snapshot itself, the DTD and
// XSD texts, and a compiled validator (DFA transitions are read-only
// after compile, so one validator serves any number of concurrent
// validations, and consecutive bundles share the automata of unchanged
// content models).
type published struct {
	snap      *core.Snapshot
	dtdText   string
	xsdText   string
	validator *dtd.Validator
}

// jobKind discriminates queue entries.
type jobKind int

const (
	jobIngest jobKind = iota
	jobSummary
	jobPersist
)

// job is one queued unit of work. reply, when non-nil, receives exactly
// one result; it must be buffered (capacity 1) so the worker never
// blocks on a handler that timed out and went away.
type job struct {
	kind    jobKind
	data    []byte          // jobIngest: one XML document
	summary *dtd.Extraction // jobSummary: a decoded corpus summary
	reply   chan jobResult
}

// jobResult is the worker's answer to one job.
type jobResult struct {
	status  int    // HTTP status the handler should answer
	message string // error detail for non-2xx results
	version uint64 // published snapshot version after the job
}

// path is the tenant's summary location ("" when persistence is off).
func (t *tenant) path() string {
	if t.srv.cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(t.srv.cfg.DataDir, t.name+corpusExt)
}

// run is the worker loop. It exits when srv.stop closes AND the queue
// is flushed, after a final persist — the drain contract: every job
// enqueued before the listener shut down is processed, then the last
// summary hits disk.
func (t *tenant) run() {
	defer t.srv.wg.Done()
	for {
		select {
		case j := <-t.queue:
			t.process(j)
		case <-t.srv.stop:
			for {
				select {
				case j := <-t.queue:
					t.process(j)
				default:
					t.finalPersist()
					return
				}
			}
		}
	}
}

// process dispatches one job. Ingest jobs coalesce: consecutive queued
// documents are drained (up to BatchMax) into one AddDocs pass and one
// Refresh, so a burst of N requests costs one inference pass, not N.
func (t *tenant) process(j *job) {
	if err := faultinject.Fire("server.worker", t.name); err != nil {
		j.fail(fmt.Errorf("worker fault: %w", err))
		return
	}
	switch j.kind {
	case jobIngest:
		batch := []*job{j}
	more:
		for len(batch) < t.srv.cfg.BatchMax {
			select {
			case next := <-t.queue:
				if next.kind != jobIngest {
					// Different kind: finish the batch first, then
					// process the interloper in arrival order.
					t.ingestBatch(batch)
					t.process(next)
					return
				}
				batch = append(batch, next)
			default:
				break more
			}
		}
		t.ingestBatch(batch)
	case jobSummary:
		t.mergeSummary(j)
	case jobPersist:
		err := t.persist()
		j.replyResult(persistResult(err))
	}
}

// fail answers a job with a 500 carrying the error text.
func (j *job) fail(err error) {
	j.replyResult(jobResult{status: 500, message: err.Error()})
}

// replyResult delivers the result if anyone is waiting (reply is nil
// for background persist jobs; buffered otherwise, so this never
// blocks).
func (j *job) replyResult(r jobResult) {
	if j.reply != nil {
		j.reply <- r
	}
}

func persistResult(err error) jobResult {
	if err != nil {
		return jobResult{status: 500, message: err.Error()}
	}
	return jobResult{status: 200}
}

// ingestBatch runs one AddDocs+Refresh pass over a coalesced batch and
// answers every job: 200 with the new version for accepted documents,
// 422 for documents the decoder rejected, 500 when the inference pass
// itself failed (the corpus advanced; readers keep the old snapshot).
func (t *tenant) ingestBatch(batch []*job) {
	m := &t.srv.metrics
	docs := make([]dtd.Doc, len(batch))
	for i, j := range batch {
		docs[i] = dtd.Doc{Label: fmt.Sprintf("doc-%d", i), R: bytes.NewReader(j.data)}
	}
	report, err := t.inc.AddDocs(context.Background(), docs, t.srv.cfg.Ingest, dtd.SkipAndRecord)
	if report != nil {
		m.ingestDocs.Add(int64(report.Documents))
		m.ingestAccepted.Add(int64(report.Accepted))
		m.ingestRejected.Add(int64(report.Rejected))
		m.ingestBytes.Add(report.Bytes)
		m.ingestElements.Add(report.Elements)
		if p := report.Pipeline; p != nil {
			m.pipelineBatches.Add(1)
			m.pipelineFlushUnits.Add(int64(p.FlushUnits))
			m.pipelineArenaReuses.Add(int64(p.ArenaReuses))
			m.pipelineDecodeNs.Add(p.Decode.Nanoseconds())
			m.pipelineFlushWaitNs.Add(p.FlushWait.Nanoseconds())
			m.pipelineCommitNs.Add(p.Commit.Nanoseconds())
			m.pipelineCommitterIdleNs.Add(p.CommitterIdle.Nanoseconds())
		}
	}
	if err != nil {
		// Batch-level failure (cancellation): nothing committed.
		for _, j := range batch {
			j.fail(err)
		}
		return
	}
	rejected := map[int]string{}
	for _, e := range report.Errors {
		rejected[e.Index] = e.Err.Error()
	}
	if report.Accepted > 0 {
		t.dirty.Store(true)
	}
	var version uint64
	var refreshErr error
	if report.Accepted > 0 {
		version, refreshErr = t.refreshAndPublish()
	} else if p := t.published.Load(); p != nil {
		version = p.snap.Version
	}
	for i, j := range batch {
		if msg, bad := rejected[i]; bad {
			j.replyResult(jobResult{status: 422, message: msg})
			continue
		}
		if refreshErr != nil {
			j.replyResult(jobResult{status: 500,
				message: fmt.Sprintf("document ingested but inference failed: %v", refreshErr)})
			continue
		}
		j.replyResult(jobResult{status: 200, version: version})
	}
}

// mergeSummary folds an uploaded corpus summary into the tenant.
func (t *tenant) mergeSummary(j *job) {
	t.inc.MergeSummary(j.summary)
	t.dirty.Store(true)
	t.srv.metrics.summariesMerged.Add(1)
	version, err := t.refreshAndPublish()
	if err != nil {
		j.replyResult(jobResult{status: 500,
			message: fmt.Sprintf("summary merged but inference failed: %v", err)})
		return
	}
	j.replyResult(jobResult{status: 200, version: version})
}

// refreshAndPublish advances the snapshot and renders the read-side
// artifacts. Rendering happens here, on the worker, because the XSD
// needs the extraction's text samples — safe exactly when no ingestion
// runs concurrently, which the single-writer discipline guarantees.
func (t *tenant) refreshAndPublish() (uint64, error) {
	m := &t.srv.metrics
	snap, err := t.inc.Refresh(context.Background())
	if err != nil {
		m.refreshFailures.Add(1)
		return 0, err
	}
	m.refreshes.Add(1)
	if st := snap.Stats; st != nil && st.Cached {
		m.cacheHits.Add(int64(st.CacheHits))
		m.cacheMisses.Add(int64(st.CacheMisses))
		m.cacheRecomputes.Add(int64(st.CacheRecomputes))
	}
	t.published.Store(render(snap, t.inc.Extraction().TextSamples, t.published.Load()))
	return snap.Version, nil
}

// render builds the read bundle of snap. Its validator takes the
// compiled automaton of every content model left unchanged since prev,
// the bundle it replaces (nil for a tenant's first publish): automata
// are never written after compilation, so readers still holding prev
// keep validating against it undisturbed.
func render(snap *core.Snapshot, textSamples map[string][]string, prev *published) *published {
	var prevValidator *dtd.Validator
	if prev != nil {
		prevValidator = prev.validator
	}
	return &published{
		snap:      snap,
		dtdText:   snap.DTD.String(),
		xsdText:   xsd.Generate(snap.DTD, textSamples),
		validator: dtd.NewValidatorFrom(prevValidator, snap.DTD),
	}
}

// persist writes the corpus summary under the retry policy. A failure
// keeps the dirty bit: the next periodic sweep (or the final drain
// persist) tries again from the top of the backoff schedule.
func (t *tenant) persist() error {
	path := t.path()
	if path == "" {
		return nil
	}
	if !t.dirty.Load() {
		return nil
	}
	m := &t.srv.metrics
	policy := t.srv.cfg.PersistRetry
	prevRetry := policy.OnRetry
	policy.OnRetry = func(attempt int, err error) {
		m.persistRetries.Add(1)
		if prevRetry != nil {
			prevRetry(attempt, err)
		}
	}
	err := core.SaveCorpusRetry(t.inc.Extraction(), path, &policy)
	if err != nil {
		m.persistFailures.Add(1)
		msg := err.Error()
		t.persistErr.Store(&msg)
		t.srv.cfg.Logf("server: tenant %s: persist failed: %v", t.name, err)
		return err
	}
	m.persists.Add(1)
	t.persistErr.Store(nil)
	t.dirty.Store(false)
	return nil
}

// finalPersist is the drain-time flush: one last persist attempt for a
// dirty tenant, after the queue is provably empty.
func (t *tenant) finalPersist() {
	if err := t.persist(); err != nil {
		t.srv.cfg.Logf("server: tenant %s: final persist failed: %v", t.name, err)
	}
}
