package dtdinfer

// Integration tests for the dtdserved daemon as a real process: SIGTERM
// drain correctness and kill -9 crash recovery. These drive the built
// binary over loopback HTTP, so they exercise the full stack — flag
// parsing, signal handling, listener shutdown ordering, and the final
// persist — not just the in-process server package.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dtdinfer/internal/core"
)

// daemon wraps a running dtdserved process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:PORT
	stderr *bytes.Buffer
	done   chan error
}

// startDaemon launches dtdserved on a free port and waits for the
// listening line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	return startDaemonOnReady(t, nil, args...)
}

// startDaemonOnReady is startDaemon calling onReady, when not nil, with
// the process from the goroutine that reads the listening line, the
// moment the line arrives.
func startDaemonOnReady(t *testing.T, onReady func(*os.Process), args ...string) *daemon {
	t.Helper()
	bin := filepath.Join(buildTools(t), "dtdserved")
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &stderr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	t.Cleanup(func() {
		// Receivers put the result back (see exitCode), so this receive
		// always completes once the process is gone.
		cmd.Process.Kill()
		err := <-d.done
		d.done <- err
	})

	// The first stdout line announces the bound address.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			if onReady != nil {
				onReady(cmd.Process)
			}
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line, ok := <-lines:
		const prefix = "dtdserved: listening on "
		if !ok || !strings.HasPrefix(line, prefix) {
			t.Fatalf("unexpected startup line %q (stderr: %s)", line, stderr.String())
		}
		d.base = "http://" + strings.TrimPrefix(line, prefix)
	case err := <-d.done:
		d.done <- err
		t.Fatalf("daemon exited before listening: %v\n%s", err, stderr.String())
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not announce its listen address")
	}
	return d
}

// exitCode waits for the process to exit and returns its code.
func (d *daemon) exitCode(t *testing.T, within time.Duration) int {
	t.Helper()
	select {
	case err := <-d.done:
		d.done <- err // keep the result available for Cleanup and re-reads
		if err == nil {
			return 0
		}
		if exit, ok := err.(*exec.ExitError); ok {
			return exit.ExitCode()
		}
		t.Fatalf("daemon wait: %v", err)
	case <-time.After(within):
		t.Fatalf("daemon did not exit within %v\nstderr: %s", within, d.stderr.String())
	}
	return -1
}

func httpPost(url, body string) (int, string, error) {
	resp, err := http.Post(url, "application/xml", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), nil
}

func httpGet(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), nil
}

// TestDaemonSIGTERMDrainsCleanly: under concurrent ingest and read load,
// SIGTERM must complete every accepted request, persist the corpus, and
// exit 0 — and a restarted daemon must serve the same schema without
// re-ingestion.
func TestDaemonSIGTERMDrainsCleanly(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-data", dir, "-queue", "256", "-drain-timeout", "30s", "-persist-interval", "-1s")
	base := d.base + "/v1/tenants/shop"

	if code, body, err := httpPost(base+"/documents",
		"<store><book><title>a</title><price>1</price></book></store>"); err != nil || code != 200 {
		t.Fatalf("priming ingest: code=%d err=%v body=%s", code, err, body)
	}

	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
		other    atomic.Int64
		draining atomic.Bool
	)
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(2)
		go func(i int) { // ingest load
			defer wg.Done()
			doc := fmt.Sprintf("<store><book><title>t%d</title></book></store>", i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, err := httpPost(base+"/documents", doc)
				switch {
				case err != nil:
					// Once the drain begins the listener is closed:
					// connection errors are the expected outcome for new
					// dials. Before that they are real failures.
					if draining.Load() {
						return
					}
					other.Add(1)
				case code == 200:
					accepted.Add(1)
				case code == 503 || code == 429:
				default:
					other.Add(1)
				}
			}
		}(i)
		go func() { // read load
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, err := httpGet(base + "/dtd")
				if err != nil {
					if draining.Load() {
						return
					}
					other.Add(1)
					continue
				}
				if code != 200 && code != 503 {
					other.Add(1)
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	draining.Store(true)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let the drain overlap the tail of the load, then release the
	// goroutines that have not already hit a closed listener.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if code := d.exitCode(t, 30*time.Second); code != 0 {
		t.Fatalf("exit code %d after SIGTERM, want 0\nstderr: %s", code, d.stderr.String())
	}
	if other.Load() != 0 {
		t.Errorf("%d requests saw unexpected statuses or mid-flight errors", other.Load())
	}
	if accepted.Load() == 0 {
		t.Error("no ingest request was accepted during the load window")
	}

	// The final persist captured everything accepted: the summary loads
	// and a restarted daemon serves a DTD identical to library inference
	// over it.
	x, err := core.LoadCorpus(filepath.Join(dir, "shop.corpus"))
	if err != nil {
		t.Fatalf("summary after drain: %v", err)
	}
	// priming + accepted load requests; the drain contract says every 200
	// is durable. (A request whose response was lost to the shutdown race
	// may still have been ingested, so >= rather than ==.)
	wantDocs := int(1 + accepted.Load())
	if x.Documents < wantDocs {
		t.Errorf("persisted %d documents, want at least %d (every accepted request must be durable)", x.Documents, wantDocs)
	}
	ref, err := core.InferDTDFromExtraction(x, core.IDTD, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, "-data", dir, "-persist-interval", "-1s")
	code, dtdText, err := httpGet(d2.base + "/v1/tenants/shop/dtd")
	if err != nil || code != 200 {
		t.Fatalf("dtd after restart: code=%d err=%v", code, err)
	}
	if dtdText != ref.String() {
		t.Errorf("restarted daemon serves a different DTD:\n%s\nwant:\n%s", dtdText, ref)
	}
}

// TestDaemonSIGTERMAtReadiness: a SIGTERM sent the moment the listening
// line appears must drain like any other — exit 0, with the summary of
// every accepted document intact — not kill the process with the
// signal's default action. The first daemon accepts two documents and
// drains; each round then restarts it over the same data directory and
// signals it from the goroutine that reads its listening line.
func TestDaemonSIGTERMAtReadiness(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-data", dir, "-persist-interval", "-1s")
	for _, doc := range []string{
		"<log><entry><msg>a</msg></entry></log>",
		"<log><entry><msg>b</msg><level>info</level></entry></log>",
	} {
		if code, body, err := httpPost(d.base+"/v1/tenants/early/documents", doc); err != nil || code != 200 {
			t.Fatalf("ingest: code=%d err=%v body=%s", code, err, body)
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	sigterm := func(p *os.Process) { p.Signal(syscall.SIGTERM) }
	for round := 0; ; round++ {
		if code := d.exitCode(t, 20*time.Second); code != 0 {
			t.Fatalf("round %d: exit code %d after SIGTERM, want 0\nstderr: %s", round, code, d.stderr.String())
		}
		x, err := core.LoadCorpus(filepath.Join(dir, "early.corpus"))
		if err != nil {
			t.Fatalf("round %d: summary after drain: %v", round, err)
		}
		if x.Documents != 2 {
			t.Fatalf("round %d: summary holds %d documents, want the 2 accepted ones", round, x.Documents)
		}
		if round == 10 {
			return
		}
		d = startDaemonOnReady(t, sigterm, "-data", dir, "-persist-interval", "-1s")
	}
}

// TestDaemonKill9Recovery: a daemon killed with SIGKILL mid-ingest loses
// only what was not yet persisted; the restart serves a schema
// byte-identical to inference over the last persisted summary, and the
// un-persisted tail is simply absent.
func TestDaemonKill9Recovery(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-data", dir, "-persist-interval", "-1s")
	base := d.base + "/v1/tenants/crashy"

	for _, doc := range []string{
		"<log><entry><msg>a</msg></entry></log>",
		"<log><entry><msg>b</msg><level>info</level></entry></log>",
	} {
		if code, body, err := httpPost(base+"/documents", doc); err != nil || code != 200 {
			t.Fatalf("ingest: code=%d err=%v body=%s", code, err, body)
		}
	}
	if code, body, err := httpPost(base+"/persist", ""); err != nil || code != 200 {
		t.Fatalf("persist: code=%d err=%v body=%s", code, err, body)
	}
	// This document arrives after the durability point and dies with the
	// process.
	if code, _, err := httpPost(base+"/documents", "<log><entry><msg>c</msg><lost>y</lost></entry></log>"); err != nil || code != 200 {
		t.Fatalf("post-persist ingest: code=%d err=%v", code, err)
	}

	if err := d.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no final persist
		t.Fatal(err)
	}
	d.exitCode(t, 10*time.Second)

	x, err := core.LoadCorpus(filepath.Join(dir, "crashy.corpus"))
	if err != nil {
		t.Fatalf("summary after kill -9: %v", err)
	}
	if x.Documents != 2 {
		t.Fatalf("summary holds %d documents, want the 2 persisted ones", x.Documents)
	}
	ref, err := core.InferDTDFromExtraction(x, core.IDTD, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, "-data", dir, "-persist-interval", "-1s")
	code, dtdText, err := httpGet(d2.base + "/v1/tenants/crashy/dtd")
	if err != nil || code != 200 {
		t.Fatalf("dtd after crash restart: code=%d err=%v", code, err)
	}
	if dtdText != ref.String() {
		t.Errorf("recovered DTD differs from inference over the persisted summary:\n%s\nwant:\n%s", dtdText, ref)
	}
	if strings.Contains(dtdText, "lost") {
		t.Error("recovered DTD contains the un-persisted document's element")
	}
	// The recovered tenant keeps working.
	if code, _, err := httpPost(d2.base+"/v1/tenants/crashy/documents",
		"<log><entry><msg>d</msg></entry></log>"); err != nil || code != 200 {
		t.Errorf("ingest after crash recovery: code=%d err=%v", code, err)
	}
}

// TestDaemonHealthAndMetrics smoke-checks the operational endpoints of a
// real process.
func TestDaemonHealthAndMetrics(t *testing.T) {
	d := startDaemon(t, "-persist-interval", "-1s")
	if code, body, err := httpGet(d.base + "/healthz"); err != nil || code != 200 || body != "ok\n" {
		t.Errorf("healthz: code=%d body=%q err=%v", code, body, err)
	}
	if code, _, err := httpGet(d.base + "/readyz"); err != nil || code != 200 {
		t.Errorf("readyz: code=%d err=%v", code, err)
	}
	if code, _, err := httpPost(d.base+"/v1/tenants/m/documents", "<a><b/></a>"); err != nil || code != 200 {
		t.Fatalf("ingest: code=%d err=%v", code, err)
	}
	code, body, err := httpGet(d.base + "/metrics")
	if err != nil || code != 200 {
		t.Fatalf("metrics: code=%d err=%v", code, err)
	}
	for _, want := range []string{
		"dtdserved_http_requests_total",
		"dtdserved_ingest_documents_total 1",
		`dtdserved_tenant_version{tenant="m"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// SIGINT drains like SIGTERM.
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if code := d.exitCode(t, 20*time.Second); code != 0 {
		t.Errorf("exit code %d after SIGINT, want 0\nstderr: %s", code, d.stderr.String())
	}
}
