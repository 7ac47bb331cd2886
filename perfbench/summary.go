package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"dtdinfer/internal/automata"
	"dtdinfer/internal/core"
	"dtdinfer/internal/crx"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/experiments"
	"dtdinfer/internal/idtd"
	"dtdinfer/internal/regex"
	"dtdinfer/internal/soa"
)

// The summary workload is the summary -> DTD run of dtdinfer -load-corpus
// and dtdmerge: no XML is parsed, so the engines (soa, idtd, crx) and the
// snapshot codec dominate. It is the mirror of the corpus workload. Its op
// runs iDTD, its alt_op CRX.

const (
	// summaryDraws is how many independently drawn corpora one run cycles
	// through. An iDTD op's cost depends on its draw (by up to 15 % between
	// seeds: the repair work follows the samples), so one draw per run
	// would make the run-to-run spread mostly a property of the seed.
	summaryDraws = 4
	// summarySetups is how many set-ups a run times, cycling through the
	// draws; setup_s is their median, as one set-up takes tens of ms. The
	// first summaryDraws run before the window, the rest are spread through
	// it, so setup_s samples the host's speed over the same half minute as
	// the ops.
	summarySetups = 16
)

// wideInput is one draw of the summary corpus.
type wideInput struct {
	docs    []string
	rows    []wideRow
	summary []byte
	texts   map[core.Algorithm]string // DTD text of the first op per engine
}

func runSummary(cfg *config) (*outcome, error) {
	out := newOutcome()
	inputs := make([]*wideInput, summaryDraws)
	k := summarySetups
	if cfg.short {
		inputs, k = inputs[:1], 2
	}
	for i := range inputs {
		docs, rows := wideCorpus(cfg.seed*summaryDraws + int64(i))
		inputs[i] = &wideInput{docs: docs, rows: rows, texts: map[core.Algorithm]string{}}
	}

	// Set-up: ingest a wide corpus and write its summary, the map step a
	// shard pays once. Summaries are saved before any inference, so every
	// operation below starts cold.
	var setups []float64
	setup := func() error {
		i := len(setups)
		in := inputs[i%len(inputs)]
		rs := readers(in.docs)
		var buf bytes.Buffer
		// A shard pays the set-up in a fresh process: start each one from
		// a collected heap, not from whatever garbage the ops left.
		runtime.GC()
		start := time.Now()
		x := dtd.NewExtraction()
		_, err := x.AddDocumentsParallel(rs, 0, nil, dtd.FailFast)
		if err == nil {
			err = core.WriteCorpus(x, &buf)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		if in.summary != nil && !bytes.Equal(in.summary, buf.Bytes()) {
			out.fail("set-up %d wrote a different summary", i)
		}
		in.summary = buf.Bytes()
		return nil
	}
	for range inputs {
		if err := setup(); err != nil {
			return nil, err
		}
	}
	out.facts["summary_bytes"] = len(inputs[0].summary)

	before := liveHeap()
	x, err := core.ReadCorpus(bytes.NewReader(inputs[0].summary))
	if err != nil {
		return nil, err
	}
	state := heapMB(liveHeap(), before)
	distinct := distinctSequences(x)
	out.facts["distinct_sequences"] = distinct
	runtime.KeepAlive(x)

	expected := table2Expectations(cfg.perturb)
	op := func(tr *tracer, in *wideInput, algo core.Algorithm) (summaryOp, bool) {
		r, err := runSummaryOp(tr, in.summary, algo)
		out.res.Attempted++
		if err != nil {
			out.res.Failed++
			out.fail("%s op: %v", algo, err)
			return r, false
		}
		if ref, ok := in.texts[algo]; !ok {
			in.texts[algo] = r.text
			checkSummaryDTD(out, algo, r.d, expected[algo], in.rows)
		} else if r.text != ref {
			out.fail("%s op: DTD text differs from the first op's", algo)
		}
		return r, true
	}

	if cfg.trace {
		err = traceSummary(cfg, out, inputs, op)
		out.set("sample.distinct_sequences", float64(distinct))
	} else {
		var idtdMs, crxMs []float64
		start := time.Now()
		deadline := start.Add(cfg.window)
		spread := k - len(inputs)
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			if n := len(setups) - len(inputs); n < spread && time.Since(start) >= time.Duration(n)*cfg.window/time.Duration(spread) {
				if err := setup(); err != nil {
					return nil, err
				}
			}
			in := inputs[i%len(inputs)]
			if r, ok := op(nil, in, core.IDTD); ok {
				idtdMs = append(idtdMs, ms(r.total))
			}
			if r, ok := op(nil, in, core.CRX); ok {
				crxMs = append(crxMs, ms(r.total))
			}
		}
		for len(setups) < k {
			if err := setup(); err != nil {
				return nil, err
			}
		}
		out.set("op_ms_p50", median(idtdMs))
		out.set("alt_op_ms_p50", median(crxMs))
		out.set("setup_s", median(setups))
		out.set("state_mb", state)
		out.facts["idtd_ops"] = len(idtdMs)
		out.facts["crx_ops"] = len(crxMs)
	}
	out.facts["idtd_dtd_sha256"] = digest(inputs[0].texts[core.IDTD])
	out.facts["crx_dtd_sha256"] = digest(inputs[0].texts[core.CRX])
	return out, err
}

// summaryOp is one timed operation and its parts.
type summaryOp struct {
	total, load, infer, emit time.Duration
	x                        *dtd.Extraction
	d                        *dtd.DTD
	text                     string
}

// runSummaryOp is the workload's operation: ReadCorpus of the in-memory
// summary, InferDTDFromExtraction with the given engine, DTD.String.
func runSummaryOp(tr *tracer, summary []byte, algo core.Algorithm) (summaryOp, error) {
	var r summaryOp
	var err error
	op := tr.op()
	root := tr.begin("summary.op."+string(algo), op, -1)
	defer tr.end(root)
	start := time.Now()
	r.load = tr.call("core.ReadCorpus", op, root, func() { r.x, err = core.ReadCorpus(bytes.NewReader(summary)) })
	if err != nil {
		return r, err
	}
	r.infer = tr.call("core.InferDTDFromExtraction", op, root, func() { r.d, err = core.InferDTDFromExtraction(r.x, algo, nil) })
	if err != nil {
		return r, err
	}
	r.emit = tr.call("dtd.DTD.String", op, root, func() { r.text = r.d.String() })
	r.total = time.Since(start)
	return r, nil
}

// traceSummary is the traced summary run. Each round times a traced iDTD
// op, a traced CRX op and an untraced iDTD op (for the tracing overhead),
// then calls each engine layer directly, per element, on the loaded
// extraction.
func traceSummary(cfg *config, out *outcome, inputs []*wideInput, op func(*tracer, *wideInput, core.Algorithm) (summaryOp, bool)) error {
	tr := newTracer()
	var load, soaMs, rewrite, crxMs, critical, inferIDTD, inferCRX, emit, traced, untraced []float64
	deadline := time.Now().Add(cfg.window)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		in := inputs[i%len(inputs)]
		ri, ok := op(tr, in, core.IDTD)
		if !ok {
			continue
		}
		rc, ok := op(tr, in, core.CRX)
		if !ok {
			continue
		}
		ru, ok := op(nil, in, core.IDTD)
		if !ok {
			continue
		}
		traced = append(traced, ms(ri.total))
		untraced = append(untraced, ms(ru.total))
		load = append(load, ms(ri.load), ms(rc.load))
		inferIDTD = append(inferIDTD, ms(ri.infer))
		inferCRX = append(inferCRX, ms(rc.infer))
		emit = append(emit, ms(ri.emit), ms(rc.emit))

		direct := tr.op()
		root := tr.begin("engines.layers", direct, -1)
		var soaSum, rewriteSum, crxSum time.Duration
		for _, name := range childElements(ri.d) {
			s := ri.x.Sequences[name]
			var a *soa.SOA
			var err error
			soaSum += tr.call("soa.InferSample", direct, root, func() { a = soa.InferSample(s) })
			rewriteSum += tr.call("idtd.FromSOA", direct, root, func() { _, err = idtd.FromSOA(a, nil) })
			if err != nil {
				return fmt.Errorf("idtd.FromSOA on %s: %w", name, err)
			}
			crxSum += tr.call("crx.InferSample", direct, root, func() { _, err = crx.InferSample(s) })
			if err != nil {
				return fmt.Errorf("crx.InferSample on %s: %w", name, err)
			}
		}
		tr.end(root)
		soaMs = append(soaMs, ms(soaSum))
		rewrite = append(rewrite, ms(rewriteSum))
		crxMs = append(crxMs, ms(crxSum))
		engines, err := directEngines(tr, tr.op(), ri.x, ri.d, core.IDTD)
		if err != nil {
			return err
		}
		critical = append(critical, ms(engines.max))
	}
	out.set("snapshot.load_ms", median(load))
	out.set("soa.build_ms", median(soaMs))
	out.set("idtd.rewrite_ms", median(rewrite))
	out.set("crx.ms", median(crxMs))
	out.set("core.infer.critical_ms", median(critical))
	out.set("core.infer.idtd_ms", median(inferIDTD))
	out.set("core.infer.crx_ms", median(inferCRX))
	out.set("summary.dtd.emit_ms", median(emit))
	out.set(cfg.workload+".trace.overhead_pct", overheadPct(traced, untraced))
	return finishTrace(cfg, tr, out, "summary.op.idtd", "summary.op.crx")
}

// table2Expectations returns, per engine, the content models Table 2 of
// the paper reports. CRX's example1 is left out: its 48-string sample
// pins the paper's answer for only some seeds. perturb swaps two iDTD
// references, for the self-test.
func table2Expectations(perturb bool) map[core.Algorithm]map[string]*regex.Expr {
	want := map[core.Algorithm]map[string]*regex.Expr{core.IDTD: {}, core.CRX: {}}
	for _, r := range experiments.Table2 {
		want[core.IDTD][r.Element] = regex.MustParse(r.PaperIDTD)
		if r.Element != "example1" {
			want[core.CRX][r.Element] = regex.MustParse(r.PaperCRX)
		}
	}
	if perturb {
		m := want[core.IDTD]
		m["example2"], m["example3"] = m["example3"], m["example2"]
	}
	return want
}

// checkSummaryDTD checks one engine's DTD: the Table 2 models are
// language-equivalent to the paper's, and every model accepts the sample
// the generator drew for it.
func checkSummaryDTD(out *outcome, algo core.Algorithm, d *dtd.DTD, want map[string]*regex.Expr, rows []wideRow) {
	for name, e := range want {
		got := d.Model(name)
		if got == nil || !automata.ExprEquivalent(got, e) {
			out.fail("%s infers %s for %s, Table 2 reports %s", algo, got, name, e)
		}
	}
	for _, row := range rows {
		got := d.Model(row.name)
		if got == nil {
			out.fail("%s declares no content model for %s", algo, row.name)
			continue
		}
		for _, w := range row.sample {
			if !got.Match(w) {
				out.fail("%s model %s of %s rejects its sample string %v", algo, got, row.name, w)
				break
			}
		}
	}
}
