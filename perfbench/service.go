package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/server"
	"dtdinfer/internal/xsd"
)

// The service workload is an open-loop mix of validations and ingests
// against one dtdserved tenant, served in-process on a loopback listener.
// It is the only workload with writes beside reads and with a warm model
// cache. Its op is a validate request, its alt_op an ingest request.
const (
	serviceTenant = "bench"
	// docsPerBody generated Protein documents (about 16 entries) make one
	// body of about 27 KB, so one validation takes milliseconds.
	docsPerBody = 8
	// seedBodies bodies make the tenant's seed corpus (about 2400
	// entries, past the 256 distinct identifiers at which ID detection
	// stops).
	seedBodies      = 150
	seedBodiesShort = 30
	// serviceRate is the fixed arrival rate in requests per second, chosen
	// once so that the tenant's host is about half busy; it is never
	// re-derived per run.
	serviceRate = 150.0
	// ingestShare is the share of ingest requests: one per four
	// validations. invalidShare is the share of validations whose body is
	// known to be invalid.
	ingestShare  = 0.2
	invalidShare = 0.25
	// senders is the number of load goroutines and client connections.
	senders = 2
	// serviceSetups is how many times a run starts the server, whose
	// median start is setup_s. One start takes milliseconds, so the starts
	// are spaced setupSpacing apart: their median then samples the host's
	// speed over seconds rather than over one tenth of a second.
	serviceSetups = 20
	setupSpacing  = 250 * time.Millisecond
	// undeclaredChild is inserted into known-invalid bodies; no generated
	// document contains it.
	undeclaredChild = "<perfbench-undeclared/>"
)

// serviceOpts mirrors dtdserved's defaults: iDTD with the degradation
// ladder, ingestion at GOMAXPROCS workers.
var serviceOpts = core.Options{Degrade: core.DegradeLadder}

// request is one scheduled request.
type request struct {
	at     time.Duration // scheduled send time, from the window's start
	ingest bool
	body   []byte
	valid  bool // the expected verdict of a validation
}

// response is what the load generator observed for one request.
type response struct {
	late    time.Duration // actual send time minus scheduled time
	latency time.Duration // full response time minus scheduled time
	status  int
	ok      bool   // 200 with the expected verdict and a monotonic version
	problem string // why not ok
	traced  bool
}

func runService(cfg *config) (*outcome, error) {
	out := newOutcome()
	nSeed := seedBodies
	if cfg.short {
		nSeed = seedBodiesShort
	}
	seedDocs := mergeDocs(proteinDocs(cfg.seed, nSeed*docsPerBody, "S"), docsPerBody)
	reqs := schedule(cfg.seed, cfg.window, seedDocs, cfg.perturb)
	nIngest := 0
	for _, r := range reqs {
		if r.ingest {
			nIngest++
		}
	}
	// Ingest bodies come from a different seed: most of their element
	// shapes are already in the seed corpus and some are new.
	ingestDocs := mergeDocs(proteinDocs(cfg.seed+1_000_003, nIngest*docsPerBody, "N"), docsPerBody)
	for i, j := 0, 0; i < len(reqs); i++ {
		if reqs[i].ingest {
			reqs[i].body = []byte(ingestDocs[j])
			j++
		}
	}
	out.facts["requests"] = len(reqs)
	out.facts["ingests"] = nIngest

	dir, err := os.MkdirTemp(cfg.workdir, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seedSummary, err := writeSeedSummary(dir, seedDocs)
	if err != nil {
		return nil, err
	}
	scfg := server.Config{Algo: core.IDTD, Opts: serviceOpts, DataDir: dir, PersistInterval: -1}

	before := liveHeap()
	k := serviceSetups
	if cfg.short || cfg.trace {
		k = 1
	}
	var setups []float64
	var srv *server.Server
	for i := 0; i < k; i++ {
		if srv != nil {
			if err := srv.Close(10 * time.Second); err != nil {
				return nil, err
			}
			time.Sleep(setupSpacing)
		}
		// Every start begins from a collected heap, as a fresh daemon's
		// does.
		runtime.GC()
		start := time.Now()
		srv, err = server.New(scfg)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(10 * time.Second)
		return nil, err
	}
	hs := &http.Server{Handler: traceHandler(tr, srv.Handler())}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}}

	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		client.CloseIdleConnections()
		if cerr := srv.Close(10 * time.Second); err == nil {
			err = cerr
		}
		return err
	}

	if err := warmUp(client, base, seedDocs); err != nil {
		shutdown()
		return nil, err
	}
	m0, err := scrapeMetrics(client, base)
	if err != nil {
		shutdown()
		return nil, err
	}
	cpu0, wall0 := cpuTime(), time.Now()
	resps := drive(tr, client, base, reqs)
	busy := (cpuTime() - cpu0).Seconds() / time.Since(wall0).Seconds() / float64(runtime.GOMAXPROCS(0))
	out.facts["cpu_busy_pct"] = math.Round(100 * busy)
	m1, err := scrapeMetrics(client, base)
	if err == nil {
		var text []byte
		_, text, err = get(client, base+"/v1/tenants/"+serviceTenant+"/dtd")
		out.facts["dtd_sha256"] = digest(string(text))
	}
	if err != nil {
		shutdown()
		return nil, err
	}
	state := heapMB(liveHeap(), before)
	// The inputs were live when the baseline was taken; keep them live
	// through the second reading so state_mb counts only the tenant.
	runtime.KeepAlive(seedDocs)
	runtime.KeepAlive(seedSummary)
	if err := shutdown(); err != nil {
		return nil, err
	}

	var validate, ingest, validateUntraced, late []float64
	refusedByClient := 0
	for i, r := range resps {
		out.res.Attempted++
		late = append(late, ms(r.late))
		if !r.ok {
			out.res.Failed++
			if r.problem != "" {
				out.fail("request %d: %s", i, r.problem)
			}
			switch r.status {
			case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				refusedByClient++
			}
			continue
		}
		l := ms(r.latency)
		if reqs[i].ingest {
			ingest = append(ingest, l)
			continue
		}
		validate = append(validate, l)
		if !r.traced {
			validateUntraced = append(validateUntraced, l)
		}
	}

	if !cfg.trace {
		out.set("op_ms_p50", median(validate))
		out.set("alt_op_ms_p50", median(ingest))
		out.set("setup_s", median(setups))
		out.set("state_mb", state)
		return out, nil
	}
	// The tails: every request of the traced run counts, traced or not.
	out.set("validate_ms_p99", quantile(validate, 0.99))
	out.set("ingest_ms_p99", quantile(ingest, 0.99))

	refreshes := m1["dtdserved_refreshes_total"] - m0["dtdserved_refreshes_total"]
	docs := m1["dtdserved_ingest_documents_total"] - m0["dtdserved_ingest_documents_total"]
	out.set("server.batch_docs", docs/math.Max(refreshes, 1))
	out.set("server.refused", float64(refusedByClient)+m1["dtdserved_queue_full_total"]-m0["dtdserved_queue_full_total"])
	out.set("gen.late_ms_p99", quantile(late, 0.99))
	var validateTraced []float64
	for i, r := range resps {
		if r.ok && r.traced && !reqs[i].ingest {
			validateTraced = append(validateTraced, ms(r.latency))
		}
	}
	out.set(cfg.workload+".trace.overhead_pct", overheadPct(validateTraced, validateUntraced))
	if err := replay(tr, out, seedSummary, reqs, median(validateUntraced)); err != nil {
		return nil, err
	}
	return out, finishTrace(cfg, tr, out, "service.validate", "service.ingest")
}

// schedule draws the open-loop arrivals for one window: exponential
// inter-arrival times at serviceRate, each request an ingest with
// probability ingestShare, otherwise a validation of a seed-corpus body,
// known-invalid with probability invalidShare. perturb marks one
// known-valid body as invalid, for the self-test.
func schedule(seed int64, window time.Duration, seedDocs []string, perturb bool) []request {
	valid := make([][]byte, len(seedDocs))
	invalid := make([][]byte, len(seedDocs))
	for i, d := range seedDocs {
		valid[i] = []byte(d)
		invalid[i] = []byte(invalidate(d))
	}
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / serviceRate * float64(time.Second))
		if at >= window {
			break
		}
		r := request{at: at}
		if rng.Float64() < ingestShare {
			r.ingest = true
		} else {
			i := rng.Intn(len(seedDocs))
			r.valid = rng.Float64() >= invalidShare
			r.body = valid[i]
			if !r.valid {
				r.body = invalid[i]
			}
		}
		reqs = append(reqs, r)
	}
	if perturb {
		for i := range reqs {
			if !reqs[i].ingest && reqs[i].valid {
				reqs[i].valid = false
				break
			}
		}
	}
	return reqs
}

// invalidate inserts undeclaredChild as the first child of the document's
// first ProteinEntry.
func invalidate(doc string) string {
	i := strings.Index(doc, "<ProteinEntry")
	j := i + strings.IndexByte(doc[i:], '>') + 1
	return doc[:j] + undeclaredChild + doc[j:]
}

// writeSeedSummary ingests the seed corpus and writes its summary where
// the server recovers tenants from, returning the summary bytes.
func writeSeedSummary(dir string, docs []string) ([]byte, error) {
	x := dtd.NewExtraction()
	if _, err := x.AddDocuments(readers(docs), nil, dtd.FailFast); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := core.WriteCorpus(x, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), os.WriteFile(filepath.Join(dir, serviceTenant+".corpus"), buf.Bytes(), 0o644)
}

// warmUp opens both client connections with one untimed validation each.
func warmUp(client *http.Client, base string, seedDocs []string) error {
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, err := post(client, base+"/v1/tenants/"+serviceTenant+"/validate", []byte(seedDocs[i%len(seedDocs)]), nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("warm-up validation: status %d", status)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drive plays the schedule open-loop: a dispatcher hands each request to
// one of the senders at its scheduled time, and every latency counts
// from that time, so a stall shows in the requests queued behind it.
// When tr is set, every other request is traced.
func drive(tr *tracer, client *http.Client, base string, reqs []request) []response {
	resps := make([]response, len(reqs))
	var maxVersion atomic.Uint64 // highest version a completed ingest returned
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				resps[i] = send(tr, client, base, reqs[i], start.Add(reqs[i].at), i%2 == 1, &maxVersion)
			}
		}()
	}
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.at)))
		work <- i
	}
	close(work)
	wg.Wait()
	return resps
}

// send performs one request and judges its answer.
func send(tr *tracer, client *http.Client, base string, r request, due time.Time, traced bool, maxVersion *atomic.Uint64) response {
	traced = traced && tr != nil
	name, path := "service.validate", "/validate"
	if r.ingest {
		name, path = "service.ingest", "/documents"
	}
	var header http.Header
	root, op := -1, 0
	if traced {
		op = tr.op()
		root = tr.beginAt(name, op, -1, due)
		wait := tr.beginAt("gen.wait", op, root, due)
		tr.end(wait)
		header = http.Header{"Perfbench-Op": {strconv.Itoa(op)}, "Perfbench-Span": {strconv.Itoa(root)}}
	}
	floor := maxVersion.Load()
	resp := response{late: time.Since(due), traced: traced}
	status, body, err := post(client, base+"/v1/tenants/"+serviceTenant+path, r.body, header)
	resp.latency = time.Since(due)
	tr.end(root)
	resp.status = status
	switch {
	case err != nil:
		resp.problem = err.Error()
		return resp
	case status != http.StatusOK:
		// Refusals (429, 503, 504) and errors are failed operations; the
		// body says why.
		resp.problem = fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(body)))
		return resp
	}
	var ans struct {
		Version uint64 `json:"version"`
		Valid   *bool  `json:"valid"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		resp.problem = fmt.Sprintf("decoding %q: %v", body, err)
		return resp
	}
	if r.ingest {
		if ans.Version < floor {
			resp.problem = fmt.Sprintf("ingest returned version %d after an earlier ingest returned %d", ans.Version, floor)
			return resp
		}
		for v := maxVersion.Load(); v < ans.Version && !maxVersion.CompareAndSwap(v, ans.Version); v = maxVersion.Load() {
		}
	} else if ans.Valid == nil || *ans.Valid != r.valid {
		resp.problem = fmt.Sprintf("validation verdict %s, want valid=%t", body, r.valid)
		return resp
	}
	resp.ok = true
	return resp
}

// post sends one POST and reads the whole answer.
func post(client *http.Client, url string, body []byte, header http.Header) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	return do(client, req)
}

// get sends one GET and reads the whole answer.
func get(client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traceHandler wraps the server's public Handler in a span for every
// traced request, parented by the client-side span named in the headers.
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.Atoi(r.Header.Get("Perfbench-Op"))
		parent, err2 := strconv.Atoi(r.Header.Get("Perfbench-Span"))
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.begin("server.Handler", op, parent)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// scrapeMetrics reads the server's /metrics counters (labels dropped, so
// per-tenant gauges of the single tenant keep their plain name).
func scrapeMetrics(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ = strings.Cut(name, "{")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		m[name] = v
	}
	return m, sc.Err()
}

// replay repeats the tenant worker's and the read path's public calls, in
// schedule order, on a replica recovered from the same seed summary:
// ingest bodies one at a time through Incremental.AddDocs and Refresh,
// then the publish (DTD.String, xsd.Generate, dtd.NewValidator), and each
// validation body through Validator.ValidateOptions.
func replay(tr *tracer, out *outcome, seedSummary []byte, reqs []request, validateP50 float64) error {
	x, err := core.ReadCorpus(bytes.NewReader(seedSummary))
	if err != nil {
		return err
	}
	inc := core.NewIncrementalFromExtraction(x, core.IDTD, &serviceOpts)
	snap, err := inc.Refresh(context.Background())
	if err != nil {
		return err
	}
	v := dtd.NewValidator(snap.DTD)
	var validate, addDocs, refresh, publish, compile, elements []float64
	var hits, all int
	for _, r := range reqs {
		op := tr.op()
		if !r.ingest {
			var vs []dtd.Violation
			validate = append(validate, ms(tr.call("dtd.Validator.ValidateOptions", op, -1, func() {
				vs, err = v.ValidateOptions(bytes.NewReader(r.body), nil)
			})))
			if err != nil {
				return err
			}
			if (len(vs) == 0) != r.valid {
				out.fail("replica validation verdict valid=%t, want %t", len(vs) == 0, r.valid)
			}
			continue
		}
		docs := []dtd.Doc{{Label: "body", R: bytes.NewReader(r.body)}}
		addDocs = append(addDocs, ms(tr.call("core.Incremental.AddDocs", op, -1, func() {
			_, err = inc.AddDocs(context.Background(), docs, nil, dtd.SkipAndRecord)
		})))
		if err != nil {
			return err
		}
		refresh = append(refresh, ms(tr.call("core.Incremental.Refresh", op, -1, func() {
			snap, err = inc.Refresh(context.Background())
		})))
		if err != nil {
			return err
		}
		st := snap.Stats
		n := st.CacheHits + st.CacheMisses + st.CacheRecomputes
		hits += st.CacheHits
		all += n
		elements = append(elements, float64(n))
		root := tr.begin("server.publish", op, -1)
		start := time.Now()
		tr.call("dtd.DTD.String", op, root, func() { _ = snap.DTD.String() })
		tr.call("xsd.Generate", op, root, func() { xsd.Generate(snap.DTD, inc.Extraction().TextSamples) })
		compile = append(compile, ms(tr.call("dtd.NewValidator", op, root, func() { v = dtd.NewValidator(snap.DTD) })))
		publish = append(publish, ms(time.Since(start)))
		tr.end(root)
	}
	dv := median(validate)
	out.set("dtd.validate_ms_p50", dv)
	out.set("server.validate_overhead_ms", validateP50-dv)
	out.set("dtd.ingest_doc_ms", median(addDocs))
	out.set("core.refresh_ms", median(refresh))
	out.set("core.refresh.cache_hit_pct", 100*float64(hits)/math.Max(float64(all), 1))
	out.set("core.refresh.elements", median(elements))
	out.set("server.publish_ms", median(publish))
	out.set("automata.compile_ms", median(compile))
	return nil
}
