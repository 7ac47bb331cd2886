// Package server is the schema service: a long-lived daemon hosting
// named per-tenant corpora, each backed by a core.Incremental. Reads
// (the current DTD or XSD, document validation) are served lock-free
// from the tenant's immutable published snapshot; writes (document
// ingestion, corpus-summary merges) flow through a bounded per-tenant
// queue into a single worker goroutine that batches them, advances the
// next snapshot version, and periodically persists the corpus summary
// to disk. The layering follows OPA's server/runtime/plugins mold: this
// package owns HTTP, queueing, persistence scheduling and recovery;
// all inference semantics stay in internal/core.
//
// Robustness is the design center, not a feature:
//
//   - Backpressure, never unbounded memory: a full ingest queue answers
//     429 with Retry-After; nothing buffers beyond the queue bound.
//   - Per-request timeouts and panic containment: every handler runs
//     under a deadline and a recover barrier (the PR 4 plumbing), so a
//     panicking request burns itself, not the process.
//   - Crash safety: corpora persist via SaveCorpus's atomic durable
//     rename with jittered retry/backoff; on startup the last good
//     summary is recovered, and a corrupt one is quarantined — the
//     daemon starts that tenant empty and surfaces the error in
//     /metrics rather than refusing to boot.
//   - Drain correctness: once draining, new requests get 503 while
//     every accepted request completes; queues flush, each tenant
//     persists a final summary, and only then does Close return.
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
)

// Config tunes the daemon. The zero value of every field is usable;
// DataDir="" disables persistence entirely (a pure in-memory service).
type Config struct {
	// Algo selects the inference engine for every tenant.
	Algo core.Algorithm
	// Opts are the engine options (budget, degradation, parallelism).
	Opts core.Options
	// Ingest caps the decoder per document (nil = DefaultIngestOptions'
	// XML-bomb defenses as configured by the caller; nil means uncapped
	// here, matching the library default).
	Ingest *dtd.IngestOptions
	// DataDir is where tenant summaries live, one <tenant>.corpus file
	// each. Empty disables persistence and recovery.
	DataDir string
	// QueueSize bounds each tenant's pending ingest queue (default 64).
	QueueSize int
	// RequestTimeout bounds each request's handler (default 30s).
	RequestTimeout time.Duration
	// PersistInterval is the period of the dirty-tenant auto-persist
	// sweep (default 15s; <0 disables periodic persistence — tenants
	// then persist only on drain and explicit POST .../persist).
	PersistInterval time.Duration
	// PersistRetry shapes the retry/backoff loop around failing
	// persists (zero value = core.DefaultRetryPolicy).
	PersistRetry core.RetryPolicy
	// MaxBodyBytes caps any request body (default 32 MiB).
	MaxBodyBytes int64
	// BatchMax caps how many queued ingest jobs one worker pass
	// coalesces into a single AddDocs+Refresh (default 64).
	BatchMax int
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Algo == "" {
		c.Algo = core.IDTD
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.PersistInterval == 0 {
		c.PersistInterval = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server hosts the tenants. Create with New, mount Handler, and on
// shutdown call BeginDrain, then shut the HTTP listener down (waiting
// for in-flight requests), then Close. That order matters: in-flight
// ingest handlers wait on tenant workers, so workers must outlive the
// listener; and only after the listener is down can no new work arrive,
// making the final queue flush complete by construction.
type Server struct {
	cfg Config

	mu      sync.Mutex
	tenants map[string]*tenant

	draining atomic.Bool
	stop     chan struct{} // closed by Close: workers flush and exit
	wg       sync.WaitGroup
	closed   bool

	metrics metrics
}

// tenantName validates tenant names: path- and filename-safe, bounded.
var tenantName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// corpusExt is the summary filename suffix under DataDir.
const corpusExt = ".corpus"

// New builds a server and recovers every tenant whose summary survives
// under cfg.DataDir. A summary that fails to load is quarantined — the
// file is renamed aside with a ".quarantined" suffix, the tenant starts
// empty, and the failure is surfaced in /metrics and the tenant status —
// so one corrupt file never prevents boot.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:     cfg.withDefaults(),
		tenants: map[string]*tenant{},
		stop:    make(chan struct{}),
	}
	if s.cfg.DataDir != "" {
		if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: data dir: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	if s.cfg.DataDir != "" && s.cfg.PersistInterval > 0 {
		s.wg.Add(1)
		go s.persistLoop()
	}
	return s, nil
}

// recover scans DataDir for tenant summaries and loads each, in name
// order so startup logs and metrics are deterministic.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("server: scanning data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), corpusExt) {
			continue
		}
		name := strings.TrimSuffix(e.Name(), corpusExt)
		if !tenantName.MatchString(name) {
			s.cfg.Logf("server: ignoring summary with invalid tenant name %q", e.Name())
			continue
		}
		path := filepath.Join(s.cfg.DataDir, e.Name())
		x, err := core.LoadCorpus(path)
		if err != nil {
			s.quarantine(name, path, err)
			continue
		}
		t := s.newTenant(name, x)
		s.metrics.recovered.Add(1)
		if _, err := t.refreshAndPublish(); err != nil {
			// The summary loaded but inference failed (e.g. a budget
			// too tight for the recovered corpus). Keep serving: the
			// corpus is intact, the next refresh may succeed.
			s.cfg.Logf("server: tenant %s: initial inference failed: %v", name, err)
		} else {
			s.cfg.Logf("server: tenant %s: recovered %d documents, serving v%d",
				name, x.Documents, t.inc.Current().Version)
		}
	}
	return nil
}

// quarantine moves a summary that failed to load out of the way and
// starts the tenant empty. The rename is to a name recovery ignores, so
// the next boot does not trip over it again; a previous quarantine of
// the same tenant is overwritten (the newest corpse wins).
func (s *Server) quarantine(name, path string, cause error) {
	qpath := path + ".quarantined"
	if err := os.Rename(path, qpath); err != nil {
		s.cfg.Logf("server: tenant %s: quarantine rename failed: %v", name, err)
		qpath = path // surface the original path in the status
	}
	t := s.newTenant(name, dtd.NewExtraction())
	msg := fmt.Sprintf("summary quarantined to %s: %v", qpath, cause)
	t.quarantine.Store(&msg)
	s.metrics.quarantined.Add(1)
	s.cfg.Logf("server: tenant %s: %s; starting empty", name, msg)
}

// newTenant registers a tenant around an existing extraction and starts
// its worker; if the name already exists, the existing tenant wins and
// x is discarded (two concurrent first writes create exactly one).
func (s *Server) newTenant(name string, x *dtd.Extraction) *tenant {
	s.mu.Lock()
	if t := s.tenants[name]; t != nil {
		s.mu.Unlock()
		return t
	}
	t := &tenant{
		name:  name,
		srv:   s,
		inc:   core.NewIncrementalFromExtraction(x, s.cfg.Algo, &s.cfg.Opts),
		queue: make(chan *job, s.cfg.QueueSize),
	}
	s.tenants[name] = t
	s.wg.Add(1)
	s.mu.Unlock()
	go t.run()
	return t
}

// tenant returns the named tenant, creating it if create is set (the
// ingestion paths create tenants on first write; read paths do not).
func (s *Server) tenant(name string, create bool) (*tenant, error) {
	if !tenantName.MatchString(name) {
		return nil, errBadTenant
	}
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t != nil {
		return t, nil
	}
	if !create {
		return nil, errNoTenant
	}
	return s.newTenant(name, dtd.NewExtraction()), nil
}

// list returns the tenants sorted by name.
func (s *Server) list() []*tenant {
	s.mu.Lock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// persistLoop sweeps dirty tenants every PersistInterval, enqueueing a
// background persist job on each. The enqueue is non-blocking: a tenant
// whose queue is full is busy ingesting and will be swept again next
// tick — persistence must never add backpressure to ingestion.
func (s *Server) persistLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.PersistInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			for _, t := range s.list() {
				if t.dirty.Load() {
					select {
					case t.queue <- &job{kind: jobPersist}:
					default:
					}
				}
			}
		case <-s.stop:
			return
		}
	}
}

// BeginDrain flips the server into draining mode: /readyz and every API
// route answer 503 from now on, while requests already in flight keep
// running. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.cfg.Logf("server: draining")
	}
}

// Close flushes and stops every tenant worker: remaining queued jobs are
// processed, each dirty tenant persists a final summary (under the
// retry policy), and workers exit. Call only after the HTTP listener
// has fully shut down — Close assumes no new jobs can arrive. The
// deadline bounds the wait; on expiry Close returns ErrDrainTimeout
// with workers still running (the caller is about to exit anyway).
// After a clean Close, any tenant whose final persist failed is
// reported in the returned error.
func (s *Server) Close(deadline time.Duration) error {
	s.BeginDrain()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		return ErrDrainTimeout
	}
	var failed []string
	for _, t := range s.list() {
		if msg := t.persistErr.Load(); msg != nil {
			failed = append(failed, fmt.Sprintf("%s: %s", t.name, *msg))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("server: final persist failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

// ErrDrainTimeout is returned by Close when workers did not finish
// flushing within the drain deadline.
var ErrDrainTimeout = fmt.Errorf("server: drain deadline exceeded")
