package main

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a plain run prints. Every workload prints all
// of them, each measured on that workload's own ops: op and alt_op name
// the two operations its users run (see opNames and README.md). Every name
// here is listed in BENCHMARK.json's end_to_end section with the same
// unit.
var endToEnd = []metricSpec{
	{"op_ms_p50", "ms"},
	{"alt_op_ms_p50", "ms"},
	{"setup_s", "s"},
	{"state_mb", "MB"},
}

// opNames says, per workload, which operation op_ms_p50 and alt_op_ms_p50
// time. The run line carries it, so a reader of one result knows what its
// numbers are.
var opNames = map[string][2]string{
	"corpus":  {"pass at default workers", "pass at one worker"},
	"summary": {"iDTD op", "CRX op"},
	"service": {"validate request", "ingest request"},
}

// perLayer lists, per workload, the metrics its traced ledger contributes.
// A traced run runs every workload's ledger, so it prints all of them.
// README.md maps each to its layer and to the end-to-end metric it should
// move.
var perLayer = map[string][]metricSpec{
	"corpus": {
		{"xmltok.mb_s", "MB/s"},
		{"dtd.ingest_seq.mb_s", "MB/s"},
		{"dtd.stage_commit_ms", "ms"},
		{"dtd.ingest.allocs_per_mb", "allocs/MB"},
		{"dtd.pipeline.decode_ms", "ms"},
		{"dtd.pipeline.commit_ms", "ms"},
		{"dtd.pipeline.committer_idle_ms", "ms"},
		{"dtd.pipeline.flush_units", "count"},
		{"dtd.pipeline.arena_reuses", "count"},
		{"core.infer_ms", "ms"},
		{"dtd.attlist_ms", "ms"},
		{"dtd.emit_ms", "ms"},
		{"xsd.emit_ms", "ms"},
		{"snapshot.save_ms", "ms"},
		{"snapshot.summary_kb", "KB"},
		{"ingest.docs", "count"},
		{"ingest.elements", "count"},
		{"ingest.tokens", "count"},
		{"corpus.trace.overhead_pct", "%"},
		{"corpus.trace.unattributed_pct", "%"},
	},
	"summary": {
		{"snapshot.load_ms", "ms"},
		{"soa.build_ms", "ms"},
		{"idtd.rewrite_ms", "ms"},
		{"crx.ms", "ms"},
		{"core.infer.critical_ms", "ms"},
		{"core.infer.idtd_ms", "ms"},
		{"core.infer.crx_ms", "ms"},
		{"sample.distinct_sequences", "count"},
		{"summary.dtd.emit_ms", "ms"},
		{"summary.trace.overhead_pct", "%"},
		{"summary.trace.unattributed_pct", "%"},
	},
	"service": {
		// The tails are traced-run metrics: their run-to-run spread on a
		// shared 2-CPU host exceeds any bound a regression gate can use
		// (see README.md).
		{"validate_ms_p99", "ms"},
		{"ingest_ms_p99", "ms"},
		{"dtd.validate_ms_p50", "ms"},
		{"server.validate_overhead_ms", "ms"},
		{"dtd.ingest_doc_ms", "ms"},
		{"core.refresh_ms", "ms"},
		{"core.refresh.cache_hit_pct", "%"},
		{"core.refresh.elements", "count"},
		{"server.publish_ms", "ms"},
		{"automata.compile_ms", "ms"},
		{"server.batch_docs", "docs/refresh"},
		{"server.refused", "count"},
		{"gen.late_ms_p99", "ms"},
		{"service.trace.overhead_pct", "%"},
		{"service.trace.unattributed_pct", "%"},
	},
}

// workloadOrder is the order a traced run runs the ledgers in.
var workloadOrder = []string{"corpus", "summary", "service"}

// registered returns the metrics a run must print: every end-to-end metric
// for a plain run, every per-layer metric for a traced one.
func registered(trace bool) []metricSpec {
	if !trace {
		return endToEnd
	}
	var out []metricSpec
	for _, w := range workloadOrder {
		out = append(out, perLayer[w]...)
	}
	return out
}

// unitOf returns a registered metric's unit ("" for an unknown name, which
// checkMetrics then reports).
func unitOf(name string) string {
	for _, trace := range []bool{false, true} {
		for _, s := range registered(trace) {
			if s.name == name {
				return s.unit
			}
		}
	}
	return ""
}
