package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics are the daemon's Prometheus-style counters. Everything is a
// plain atomic — scrape cost is a read pass, update cost is one
// uncontended add — and the per-tenant gauges (version, queue depth,
// quarantine) are computed at scrape time from live tenant state rather
// than maintained as shadow counters that could drift.
type metrics struct {
	requests     atomic.Int64
	queueFull    atomic.Int64
	drainRejects atomic.Int64
	panics       atomic.Int64

	ingestDocs     atomic.Int64
	ingestAccepted atomic.Int64
	ingestRejected atomic.Int64
	ingestBytes    atomic.Int64
	ingestElements atomic.Int64

	// Pipelined-ingestion stage accounting, accumulated from each
	// batch's IngestReport.Pipeline (absent when a batch ran the
	// sequential path: one document, or parallelism 1).
	pipelineBatches         atomic.Int64
	pipelineFlushUnits      atomic.Int64
	pipelineArenaReuses     atomic.Int64
	pipelineDecodeNs        atomic.Int64
	pipelineFlushWaitNs     atomic.Int64
	pipelineCommitNs        atomic.Int64
	pipelineCommitterIdleNs atomic.Int64

	refreshes       atomic.Int64
	refreshFailures atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	cacheRecomputes atomic.Int64

	persists        atomic.Int64
	persistFailures atomic.Int64
	persistRetries  atomic.Int64

	summariesMerged atomic.Int64

	validations       atomic.Int64
	validationInvalid atomic.Int64

	recovered   atomic.Int64
	quarantined atomic.Int64
}

// writeMetrics renders the exposition format: server-wide counters in
// declaration order, then per-tenant gauges sorted by tenant name, so
// consecutive scrapes of an idle server are byte-identical.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.metrics
	counters := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"dtdserved_http_requests_total", "API requests received (drain rejections included).", &m.requests},
		{"dtdserved_queue_full_total", "Ingest requests rejected with 429 because the tenant queue was full.", &m.queueFull},
		{"dtdserved_drain_rejects_total", "Requests rejected with 503 because the server was draining.", &m.drainRejects},
		{"dtdserved_handler_panics_total", "Handler panics contained by the recover barrier.", &m.panics},
		{"dtdserved_ingest_documents_total", "Documents attempted across all tenants.", &m.ingestDocs},
		{"dtdserved_ingest_accepted_total", "Documents committed into a corpus.", &m.ingestAccepted},
		{"dtdserved_ingest_rejected_total", "Documents rejected by the decoder or its caps.", &m.ingestRejected},
		{"dtdserved_ingest_bytes_total", "Input bytes consumed by ingestion.", &m.ingestBytes},
		{"dtdserved_ingest_elements_total", "Start-element tokens decoded from accepted documents.", &m.ingestElements},
		{"dtdserved_pipeline_batches_total", "Ingest batches that ran the pipelined parallel path.", &m.pipelineBatches},
		{"dtdserved_pipeline_flush_units_total", "Staged shards shipped to the pipelined committer.", &m.pipelineFlushUnits},
		{"dtdserved_pipeline_arena_reuses_total", "Shard arenas recycled from the committed free list.", &m.pipelineArenaReuses},
		{"dtdserved_pipeline_decode_ns_total", "Worker nanoseconds spent decoding and staging.", &m.pipelineDecodeNs},
		{"dtdserved_pipeline_flush_wait_ns_total", "Worker nanoseconds blocked on the committer: handing over staged shards or waiting for a free arena.", &m.pipelineFlushWaitNs},
		{"dtdserved_pipeline_commit_ns_total", "Committer nanoseconds folding staged shards into corpora.", &m.pipelineCommitNs},
		{"dtdserved_pipeline_committer_idle_ns_total", "Committer nanoseconds waiting for the next staged shard.", &m.pipelineCommitterIdleNs},
		{"dtdserved_refreshes_total", "Successful inference passes (snapshot publishes).", &m.refreshes},
		{"dtdserved_refresh_failures_total", "Inference passes that failed (previous snapshot kept).", &m.refreshFailures},
		{"dtdserved_cache_hits_total", "Per-element model-cache hits across refreshes.", &m.cacheHits},
		{"dtdserved_cache_misses_total", "Per-element model-cache misses across refreshes.", &m.cacheMisses},
		{"dtdserved_cache_recomputes_total", "Model-cache entries invalidated by sample changes.", &m.cacheRecomputes},
		{"dtdserved_persists_total", "Successful corpus-summary persists.", &m.persists},
		{"dtdserved_persist_failures_total", "Persists that failed after exhausting retries.", &m.persistFailures},
		{"dtdserved_persist_retries_total", "Individual persist attempts that failed and were retried.", &m.persistRetries},
		{"dtdserved_summaries_merged_total", "Uploaded corpus summaries merged into tenants.", &m.summariesMerged},
		{"dtdserved_validations_total", "Document validations served.", &m.validations},
		{"dtdserved_validations_invalid_total", "Validations that found at least one violation.", &m.validationInvalid},
		{"dtdserved_recovered_tenants_total", "Tenants recovered from a durable summary at startup.", &m.recovered},
		{"dtdserved_quarantined_summaries_total", "Corrupt summaries quarantined at startup.", &m.quarantined},
	}
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v.Load())
	}

	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP dtdserved_draining Whether the server is draining (1) or serving (0).\n")
	fmt.Fprintf(w, "# TYPE dtdserved_draining gauge\ndtdserved_draining %d\n", draining)

	tenants := s.list()
	fmt.Fprintf(w, "# HELP dtdserved_tenant_version Latest published snapshot version per tenant.\n")
	fmt.Fprintf(w, "# TYPE dtdserved_tenant_version gauge\n")
	for _, t := range tenants {
		var v uint64
		if p := t.published.Load(); p != nil {
			v = p.snap.Version
		}
		fmt.Fprintf(w, "dtdserved_tenant_version{tenant=%q} %d\n", t.name, v)
	}
	fmt.Fprintf(w, "# HELP dtdserved_tenant_documents Documents in the tenant's published snapshot.\n")
	fmt.Fprintf(w, "# TYPE dtdserved_tenant_documents gauge\n")
	for _, t := range tenants {
		docs := 0
		if p := t.published.Load(); p != nil {
			docs = p.snap.Documents
		}
		fmt.Fprintf(w, "dtdserved_tenant_documents{tenant=%q} %d\n", t.name, docs)
	}
	fmt.Fprintf(w, "# HELP dtdserved_tenant_queue_depth Jobs waiting in the tenant's ingest queue.\n")
	fmt.Fprintf(w, "# TYPE dtdserved_tenant_queue_depth gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "dtdserved_tenant_queue_depth{tenant=%q} %d\n", t.name, len(t.queue))
	}
	fmt.Fprintf(w, "# HELP dtdserved_tenant_persist_failing Whether the tenant's last persist failed (1) or not (0).\n")
	fmt.Fprintf(w, "# TYPE dtdserved_tenant_persist_failing gauge\n")
	for _, t := range tenants {
		failing := 0
		if t.persistErr.Load() != nil {
			failing = 1
		}
		fmt.Fprintf(w, "dtdserved_tenant_persist_failing{tenant=%q} %d\n", t.name, failing)
	}
	fmt.Fprintf(w, "# HELP dtdserved_tenant_quarantined Whether the tenant's summary was quarantined at startup (1) or recovered cleanly (0).\n")
	fmt.Fprintf(w, "# TYPE dtdserved_tenant_quarantined gauge\n")
	for _, t := range tenants {
		q := 0
		if t.quarantine.Load() != nil {
			q = 1
		}
		fmt.Fprintf(w, "dtdserved_tenant_quarantined{tenant=%q} %d\n", t.name, q)
	}
}
