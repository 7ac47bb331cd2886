// Command dtdserved is the schema service daemon: named per-tenant
// corpora behind an HTTP API, each serving its current inferred DTD/XSD
// and validating documents from an immutable published snapshot while
// ingestion advances the next version through a bounded queue.
//
//	dtdserved [-listen ADDR] [-data DIR]
//	          [-algo idtd|crx|xtract|trang|stateelim] [-numeric] [-noise N]
//	          [-timeout D] [-max-soa-states N] [-max-expr-size N]
//	          [-degrade ladder|fail] [-j N]
//	          [-queue N] [-request-timeout D] [-drain-timeout D]
//	          [-persist-interval D] [-max-body BYTES]
//
// On SIGTERM or SIGINT the daemon drains: new requests are refused with
// 503 while in-flight ones complete, queues flush, every dirty tenant
// persists a final summary, and the process exits 0 — or 1 when the
// drain deadline expires, or 3 when a final persist failed (serving was
// clean but durability is behind). On startup each tenant recovers from
// its last summary under -data; a corrupt summary is quarantined and
// the tenant starts empty rather than blocking boot.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dtdinfer/internal/core"
	"dtdinfer/internal/dtd"
	"dtdinfer/internal/server"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8391", "listen address (host:port; port 0 picks a free port)")
	dataDir := flag.String("data", "", "directory for durable tenant summaries (empty = in-memory only)")
	algoName := flag.String("algo", "idtd", "inference algorithm: "+core.AlgorithmList())
	numeric := flag.Bool("numeric", false, "refine repetitions to {m,n} bounds from the data (Section 9)")
	noise := flag.Int("noise", 0, "iDTD noise threshold: drop edges supported by at most N strings when stuck")
	timeout := flag.Duration("timeout", 0, "cap each element's inference wall clock (0 = unlimited)")
	maxSOAStates := flag.Int("max-soa-states", 0, "cap the automaton states an engine may process per element (0 = unlimited)")
	maxExprSize := flag.Int("max-expr-size", 0, "cap the token count of an inferred content model (0 = unlimited)")
	degrade := flag.String("degrade", "ladder", "on engine failure or exceeded budget: ladder (fall back to crx, then (a1|...|an)*) or fail")
	parallelism := flag.Int("j", 0, "ingestion worker goroutines per batch (0 = GOMAXPROCS)")
	queueSize := flag.Int("queue", 64, "per-tenant ingest queue bound (full queue answers 429)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request handler deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "total drain deadline on SIGTERM")
	persistInterval := flag.Duration("persist-interval", 15*time.Second, "dirty-tenant auto-persist period (<0 disables)")
	maxBody := flag.Int64("max-body", 32<<20, "request body cap in bytes")
	maxDepth := flag.Int("max-depth", 0, "decoder cap: element nesting depth per document (0 = unlimited)")
	maxTokens := flag.Int64("max-tokens", 0, "decoder cap: XML tokens per document (0 = unlimited)")
	maxNames := flag.Int("max-names", 0, "decoder cap: distinct element names per document (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 0, "decoder cap: bytes per document (0 = unlimited)")
	flag.Parse()

	logger := log.New(os.Stderr, "dtdserved: ", log.LstdFlags)
	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		logger.Fatal(err)
	}
	opts := core.Options{NumericPredicates: *numeric, Parallelism: *parallelism}
	opts.IDTD.NoiseThreshold = *noise
	opts.Budget = core.Budget{Deadline: *timeout, MaxSOAStates: *maxSOAStates, MaxExprSize: *maxExprSize}
	switch *degrade {
	case "ladder":
		opts.Degrade = core.DegradeLadder
	case "fail":
		opts.Degrade = core.DegradeFail
	default:
		logger.Fatalf("-degrade must be ladder or fail, got %q", *degrade)
	}
	var ingest *dtd.IngestOptions
	if *maxDepth != 0 || *maxTokens != 0 || *maxNames != 0 || *maxBytes != 0 {
		ingest = &dtd.IngestOptions{MaxDepth: *maxDepth, MaxTokens: *maxTokens, MaxNames: *maxNames, MaxBytes: *maxBytes}
	}

	srv, err := server.New(server.Config{
		Algo:            algo,
		Opts:            opts,
		Ingest:          ingest,
		DataDir:         *dataDir,
		QueueSize:       *queueSize,
		RequestTimeout:  *requestTimeout,
		PersistInterval: *persistInterval,
		MaxBodyBytes:    *maxBody,
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// Catch the shutdown signals before announcing readiness: a signal
	// sent as soon as the listening line appears must drain, not kill.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	// The listening line is the readiness signal scripts and tests key
	// on; with port 0 it is also where the chosen port appears.
	fmt.Printf("dtdserved: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigc:
		logger.Printf("received %v, draining (deadline %v)", sig, *drainTimeout)
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	}

	// Drain, in the order the server contract requires: refuse new
	// requests, let in-flight ones finish (workers still running), then
	// flush queues and persist.
	deadline := time.Now().Add(*drainTimeout)
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("listener shutdown: %v", err)
		os.Exit(1)
	}
	err = srv.Close(time.Until(deadline))
	switch {
	case err == nil:
		logger.Printf("drained cleanly")
		os.Exit(0)
	case err == server.ErrDrainTimeout:
		logger.Printf("drain deadline exceeded")
		os.Exit(1)
	default:
		logger.Printf("drained, but: %v", err)
		os.Exit(3)
	}
}
