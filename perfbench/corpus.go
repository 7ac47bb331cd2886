package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"dtdinfer"
	"dtdinfer/internal/core"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/xmltok"
	"dtdinfer/internal/xsd"
)

// The corpus workload is the batch corpus -> DTD run of dtdinfer over a
// generated Protein corpus (Section 8): ingestion is more than 99 % of a
// pass, so xmltok and dtd ingestion changes show here and engine changes
// cannot. Its op is a pass at default workers (dtdinfer), its alt_op a
// pass at one worker (dtdinfer -j 1), which keeps the sequential ingest
// path that the service's writes also take apart from the pipeline.
const (
	// corpusDocs documents make about 24 MB of XML, a pass of about
	// 0.35 s at two workers.
	corpusDocs = 7000
	// corpusDocsShort must still exceed 256 identifiers (so the identifier
	// overflows to NMTOKEN) and produce every element of the Protein DTD.
	corpusDocsShort = 300
	// coldPasses is how many fresh processes time the set-up pass. They
	// are spread through the window, so setup_s samples the host's speed
	// over the same half minute as the timed passes.
	coldPasses = 7
)

// coldPassEnv names the file of documents a child process times one cold
// pass over; see coldPassMain.
const coldPassEnv = "PERFBENCH_COLD_PASS"

func runCorpus(cfg *config) (*outcome, error) {
	out := newOutcome()
	n := corpusDocs
	if cfg.short {
		n = corpusDocsShort
	}
	docs := proteinDocs(cfg.seed, n, "E")
	size := float64(totalBytes(docs)) / 1e6
	out.facts["docs"] = len(docs)
	out.facts["bytes"] = totalBytes(docs)

	var ref string // DTD text every pass must reproduce
	checkPass := func(what, text string, rep *dtd.IngestReport) {
		if ref == "" {
			ref = text
		} else if text != ref {
			out.fail("%s: DTD text differs from the first pass's", what)
		}
		if rep == nil {
			return
		}
		if rep.Documents != len(docs) {
			out.fail("%s: ingest.docs = %d, the generator made %d", what, rep.Documents, len(docs))
		}
		out.facts["ingest_elements"] = rep.Elements
		out.facts["ingest_tokens"] = rep.Tokens
	}

	if cfg.trace {
		if err := traceCorpus(cfg, docs, size, out, checkPass); err != nil {
			return nil, err
		}
	} else {
		cold, err := newColdPasser(cfg, docs)
		if err != nil {
			return nil, err
		}
		defer cold.close()
		k := coldPasses
		if cfg.short {
			k = 1
		}
		// Passes at default workers and at one worker alternate, so host
		// drift within the window reaches both alike; a cold pass runs
		// every window/k.
		var passes [2][]float64
		begin := time.Now()
		deadline := begin.Add(cfg.window)
		for i := 0; i < 2 || time.Now().Before(deadline); i++ {
			if n := len(cold.secs); n < k && time.Since(begin) >= time.Duration(n)*cfg.window/time.Duration(k) {
				if err := cold.run(); err != nil {
					return nil, err
				}
			}
			workers := []int{0, 1}[i%2]
			start := time.Now()
			text, rep, err := corpusPass(docs, workers, nil, 0, -1)
			el := time.Since(start)
			out.res.Attempted++
			if err != nil {
				out.res.Failed++
				out.fail("pass at %d workers: %v", workers, err)
				continue
			}
			passes[i%2] = append(passes[i%2], ms(el))
			checkPass(fmt.Sprintf("timed pass at %d workers", workers), text, rep)
		}
		for len(cold.secs) < k {
			if err := cold.run(); err != nil {
				return nil, err
			}
		}
		out.set("setup_s", median(cold.secs))
		out.set("op_ms_p50", median(passes[0]))
		out.set("alt_op_ms_p50", median(passes[1]))
		for _, d := range cold.digests {
			if ref != "" && d != digest(ref) {
				out.fail("cold pass: DTD digest %s, timed passes give %s", d, digest(ref))
			}
		}
	}

	// The state measurement holds the extraction the pass builds and
	// drops, so the correctness references can inspect it too.
	before := liveHeap()
	x := dtd.NewExtraction()
	if _, err := x.AddDocumentsParallel(readers(docs), 0, nil, dtd.FailFast); err != nil {
		return nil, err
	}
	d, err := core.InferDTDFromExtraction(x, core.IDTD, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out.set("state_mb", heapMB(liveHeap(), before))
	}
	text := d.String()
	checkPass("state pass", text, nil)
	checkCorpusDTD(cfg, out, x, d)
	out.facts["dtd_sha256"] = digest(text)
	out.facts["distinct_sequences"] = distinctSequences(x)
	runtime.KeepAlive(x)
	return out, nil
}

// corpusPass is the workload's operation, one dtdinfer run: ingestion and
// iDTD inference through InferDTDWithReport, then DTD.String. Workers 0
// keeps the library defaults (ingestion uses GOMAXPROCS pipelined
// workers), as dtdinfer does; any other count is dtdinfer -j workers.
func corpusPass(docs []string, workers int, tr *tracer, op, parent int) (string, *dtd.IngestReport, error) {
	var (
		d    *dtdinfer.DTD
		rep  *dtdinfer.IngestReport
		err  error
		text string
	)
	var opts *dtdinfer.Options
	if workers != 0 {
		opts = &dtdinfer.Options{Parallelism: workers}
	}
	rs := readers(docs)
	tr.call("dtdinfer.InferDTDWithReport", op, parent, func() {
		d, rep, _, err = dtdinfer.InferDTDWithReport(rs, dtdinfer.IDTD, opts, nil, dtdinfer.FailFast)
	})
	if err != nil {
		return "", rep, err
	}
	tr.call("dtd.DTD.String", op, parent, func() { text = d.String() })
	return text, rep, nil
}

func readers(docs []string) []io.Reader {
	rs := make([]io.Reader, len(docs))
	for i, d := range docs {
		rs[i] = strings.NewReader(d)
	}
	return rs
}

// traceCorpus is the traced corpus run. Each round times one traced and
// one untraced pass (their difference is the tracing overhead), then the
// two isolation passes — tokenizer only, and one-worker AddDocuments —
// and the inference, emit and snapshot layers on the one-worker
// extraction.
func traceCorpus(cfg *config, docs []string, size float64, out *outcome, checkPass func(string, string, *dtd.IngestReport)) error {
	tr := newTracer()
	var (
		traced, untraced, tok, seq, stage, allocs []float64
		decode, commit, flushWait, idle           []float64
		flushUnits, arenaReuses                   []float64
		infer, attlist, emit, xsdEmit, save       []float64
		summaryKB                                 float64
		lastRep                                   *dtd.IngestReport
	)
	deadline := time.Now().Add(cfg.window)
	for len(traced) == 0 || time.Now().Before(deadline) {
		op := tr.op()
		root := tr.begin("corpus.op", op, -1)
		start := time.Now()
		text, rep, err := corpusPass(docs, 0, tr, op, root)
		el := time.Since(start)
		tr.end(root)
		out.res.Attempted++
		if err != nil {
			out.res.Failed++
			out.fail("traced pass: %v", err)
			continue
		}
		traced = append(traced, ms(el))
		checkPass("traced pass", text, rep)
		lastRep = rep
		if p := rep.Pipeline; p != nil {
			decode = append(decode, ms(p.Decode))
			commit = append(commit, ms(p.Commit))
			flushWait = append(flushWait, ms(p.FlushWait))
			idle = append(idle, ms(p.CommitterIdle))
			flushUnits = append(flushUnits, float64(p.FlushUnits))
			arenaReuses = append(arenaReuses, float64(p.ArenaReuses))
		} else {
			out.fail("the default-worker pass reported no pipeline stats")
		}

		start = time.Now()
		text, rep, err = corpusPass(docs, 0, nil, 0, -1)
		untraced = append(untraced, ms(time.Since(start)))
		out.res.Attempted++
		if err != nil {
			out.res.Failed++
			out.fail("untraced pass: %v", err)
			continue
		}
		checkPass("untraced pass", text, rep)

		op = tr.op()
		tokDur, err := tokenizePass(docs, tr, op)
		if err != nil {
			return err
		}
		tok = append(tok, ms(tokDur))

		op = tr.op()
		x := dtd.NewExtraction()
		rs := readers(docs)
		m0 := mallocs()
		var seqErr error
		seqDur := tr.call("dtd.Extraction.AddDocuments", op, -1, func() {
			_, seqErr = x.AddDocuments(rs, nil, dtd.FailFast)
		})
		m1 := mallocs()
		if seqErr != nil {
			return seqErr
		}
		seq = append(seq, ms(seqDur))
		stage = append(stage, ms(seqDur-tokDur))
		allocs = append(allocs, float64(m1-m0)/size)

		// The summary is written before inference, as a shard ships it:
		// summaries carry memoized models, and its copy below must start
		// cold.
		op = tr.op()
		var buf bytes.Buffer
		save = append(save, ms(tr.call("core.WriteCorpus", op, -1, func() { err = core.WriteCorpus(x, &buf) })))
		if err != nil {
			return err
		}
		var d *dtd.DTD
		op = tr.op()
		inferDur := tr.call("core.InferDTDFromExtraction", op, -1, func() {
			d, err = core.InferDTDFromExtraction(x, core.IDTD, nil)
		})
		if err != nil {
			return err
		}
		infer = append(infer, ms(inferDur))
		engines, err := directEngines(tr, tr.op(), x, d, core.IDTD)
		if err != nil {
			return err
		}
		serial, err := serialInference(tr, tr.op(), buf.Bytes())
		if err != nil {
			return err
		}
		attlist = append(attlist, ms(serial-engines.sum))

		op = tr.op()
		emit = append(emit, ms(tr.call("dtd.DTD.String", op, -1, func() { text = d.String() })))
		checkPass("one-worker pass", text, nil)
		xsdEmit = append(xsdEmit, ms(tr.call("xsd.Generate", op, -1, func() { xsd.Generate(d, x.TextSamples) })))
		summaryKB = float64(buf.Len()) / 1e3
	}
	out.set("xmltok.mb_s", size/(median(tok)/1e3))
	out.set("dtd.ingest_seq.mb_s", size/(median(seq)/1e3))
	out.set("dtd.stage_commit_ms", median(stage))
	out.set("dtd.ingest.allocs_per_mb", median(allocs))
	out.set("dtd.pipeline.decode_ms", median(decode))
	out.set("dtd.pipeline.commit_ms", median(commit))
	// Without back-pressure the pipeline reports exactly zero flush wait,
	// and a time that reads the same in every run cannot be a metric; it
	// is a fact of the run instead.
	out.facts["pipeline_flush_wait_ms"] = median(flushWait)
	out.set("dtd.pipeline.committer_idle_ms", median(idle))
	out.set("dtd.pipeline.flush_units", median(flushUnits))
	out.set("dtd.pipeline.arena_reuses", median(arenaReuses))
	out.set("core.infer_ms", median(infer))
	out.set("dtd.attlist_ms", median(attlist))
	out.set("dtd.emit_ms", median(emit))
	out.set("xsd.emit_ms", median(xsdEmit))
	out.set("snapshot.save_ms", median(save))
	out.set("snapshot.summary_kb", summaryKB)
	if lastRep != nil {
		out.set("ingest.docs", float64(lastRep.Documents))
		out.set("ingest.elements", float64(lastRep.Elements))
		out.set("ingest.tokens", float64(lastRep.Tokens))
	}
	out.set(cfg.workload+".trace.overhead_pct", overheadPct(traced, untraced))
	return finishTrace(cfg, tr, out, "corpus.op")
}

// tokenizePass runs the tokenizer alone over every document: Reset and
// Next, and nothing else.
func tokenizePass(docs []string, tr *tracer, op int) (time.Duration, error) {
	tok := xmltok.NewTokenizer()
	rs := readers(docs)
	var err error
	d := tr.call("xmltok.Tokenizer", op, -1, func() {
		for _, r := range rs {
			tok.Reset(r)
			for {
				if _, err = tok.Next(); err != nil {
					break
				}
			}
			if err != io.EOF {
				return
			}
			err = nil
		}
	})
	return d, err
}

// serialInference times InferDTDFromExtraction on a cold copy of the
// extraction, loaded from its summary, with the element pool confined to
// one thread: what remains after subtracting the direct engine calls is
// then the ATTLIST pass and the pool's own cost, not an artifact of the
// pool overlapping elements.
func serialInference(tr *tracer, op int, summary []byte) (time.Duration, error) {
	x, err := core.ReadCorpus(bytes.NewReader(summary))
	if err != nil {
		return 0, err
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	d := tr.call("core.InferDTDFromExtraction.serial", op, -1, func() {
		_, err = core.InferDTDFromExtraction(x, core.IDTD, nil)
	})
	return d, err
}

// engineTimes are the direct engine calls of one inference, made per
// element outside the core worker pool.
type engineTimes struct {
	sum, max time.Duration
}

// directEngines runs core.InferSampleExpr on every element with a content
// model, one at a time.
func directEngines(tr *tracer, op int, x *dtd.Extraction, d *dtd.DTD, algo core.Algorithm) (engineTimes, error) {
	var et engineTimes
	root := tr.begin("engines.direct", op, -1)
	defer tr.end(root)
	for _, name := range childElements(d) {
		var err error
		el := tr.call("core.InferSampleExpr", op, root, func() {
			_, err = core.InferSampleExpr(x.Sequences[name], algo, nil)
		})
		if err != nil {
			return et, fmt.Errorf("%s: %w", name, err)
		}
		et.sum += el
		et.max = max(et.max, el)
	}
	return et, nil
}

// childElements lists, sorted, the elements whose declaration is a
// content model — the ones the engines infer.
func childElements(d *dtd.DTD) []string {
	var names []string
	for name, e := range d.Elements {
		if e.Type == dtd.Children {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// checkCorpusDTD compares the inferred DTD against references the code
// under test does not produce.
func checkCorpusDTD(cfg *config, out *outcome, x *dtd.Extraction, d *dtd.DTD) {
	checkModelsAccept(out, x, d)

	want := corpus.ProteinDTD().Names()
	got := d.Names()
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		out.fail("declared elements %v, the generating DTD declares %v", got, want)
	}

	// The enumerated attribute is declared as exactly its value set. The
	// identifier has far more than 256 distinct values, so the attribute
	// statistics overflow, ID detection is off and NMTOKEN is the expected
	// answer.
	wantKinds := entryKinds
	if cfg.perturb {
		wantKinds = entryKinds[1:]
	}
	attrs := map[string]*dtd.Attribute{}
	if e := d.Elements["ProteinEntry"]; e != nil {
		for _, a := range e.Attributes {
			attrs[a.Name] = a
		}
	}
	if a := attrs[kindAttr]; a == nil || a.Type != dtd.Enumerated || strings.Join(a.Values, "|") != strings.Join(wantKinds, "|") || !a.Required {
		out.fail("ProteinEntry %s declared as %v, want #REQUIRED (%s)", kindAttr, a, strings.Join(wantKinds, "|"))
	}
	if a := attrs[idAttr]; a == nil || a.Type != dtd.NMTOKEN || !a.Required {
		out.fail("ProteinEntry %s declared as %v, want NMTOKEN #REQUIRED", idAttr, a)
	}
}

// checkModelsAccept checks that every element's declaration accepts every
// distinct child sequence observed for it, matching content models with
// regex's derivative matcher, which neither the engines nor the validator
// use.
func checkModelsAccept(out *outcome, x *dtd.Extraction, d *dtd.DTD) {
	names := make([]string, 0, len(x.Sequences))
	for name := range x.Sequences {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := d.Elements[name]
		if e == nil {
			out.fail("element %s observed but not declared", name)
			continue
		}
		for _, w := range x.Sequences[name].UniqueStrings() {
			if !accepts(e, w) {
				out.fail("%s declared as %s rejects its observed children %v", name, e.String(), w)
				break
			}
		}
	}
}

func accepts(e *dtd.Element, w []string) bool {
	switch e.Type {
	case dtd.Children:
		return e.Model.Match(w)
	case dtd.Mixed:
		for _, c := range w {
			if !slices.Contains(e.MixedNames, c) {
				return false
			}
		}
		return true
	case dtd.Any:
		return true
	}
	return len(w) == 0
}

func distinctSequences(x *dtd.Extraction) int {
	n := 0
	for _, s := range x.Sequences {
		n += s.Unique()
	}
	return n
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// overheadPct compares traced and untraced medians of one operation.
func overheadPct(traced, untraced []float64) float64 {
	return 100 * (median(traced) - median(untraced)) / median(untraced)
}

// finishTrace derives self times, writes the spans next to the build and
// reports the share of operation time no child span covers.
func finishTrace(cfg *config, tr *tracer, out *outcome, roots ...string) error {
	tr.finish()
	out.set(cfg.workload+".trace.unattributed_pct", tr.unattributedPct(roots...))
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// coldPasser times the set-up — the first pass of a fresh process, which
// pays the cold heap and lazy initialization a one-shot dtdinfer run pays
// — in child processes, collecting their times and DTD digests. Input
// generation stays out of it: the children read the documents this
// process generated, from a file under the work directory.
type coldPasser struct {
	exe, dir, path string
	log            io.Writer
	secs           []float64
	digests        []string
}

func newColdPasser(cfg *config, docs []string) (*coldPasser, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "corpus-")
	if err != nil {
		return nil, err
	}
	c := &coldPasser{exe: exe, dir: dir, path: filepath.Join(dir, "docs"), log: cfg.log}
	if err := writeDocs(c.path, docs); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// run times one cold pass in a fresh child process and waits for it.
func (c *coldPasser) run() error {
	cmd := exec.Command(c.exe)
	cmd.Env = append(os.Environ(), coldPassEnv+"="+c.path)
	cmd.Stderr = c.log
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	var r coldResult
	if err := json.Unmarshal(stdout, &r); err != nil {
		return fmt.Errorf("cold pass output %q: %w", stdout, err)
	}
	c.secs = append(c.secs, r.Seconds)
	c.digests = append(c.digests, r.Digest)
	return nil
}

func (c *coldPasser) close() { os.RemoveAll(c.dir) }

// coldResult is what a cold-pass child prints.
type coldResult struct {
	Seconds float64 `json:"seconds"`
	Digest  string  `json:"digest"`
}

// coldPassMain is the child side of coldPasser.run.
func coldPassMain(path string, stdout, stderr io.Writer) int {
	docs, err := readDocs(path)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: cold pass: %v\n", err)
		return 1
	}
	start := time.Now()
	text, _, err := corpusPass(docs, 0, nil, 0, -1)
	el := time.Since(start)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: cold pass: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(coldResult{Seconds: el.Seconds(), Digest: digest(text)})
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// Documents travel to the cold-pass children as one file, each document
// terminated by a NUL byte, which XML text cannot contain.
func writeDocs(path string, docs []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, d := range docs {
		w.WriteString(d)
		w.WriteByte(0)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readDocs(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	docs := strings.Split(string(data), "\x00")
	return docs[:len(docs)-1], nil
}
