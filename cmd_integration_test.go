package dtdinfer

// Integration tests for the command-line tools: each binary is built once
// into a temporary directory and driven through its primary flows,
// including failure exit codes.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "dtdinfer-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"dtdinfer", "dtdmerge", "dtdvalidate", "dtddiff", "xmlgen", "experiments", "dtdserved"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			out, err := cmd.CombinedOutput()
			if err != nil {
				buildErr = err
				t.Logf("building %s: %s", tool, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build tools: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, stdin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	code := 0
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return string(out), code
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIDtdinferFromStdin(t *testing.T) {
	out, code := runTool(t, "dtdinfer", `<a><b>1</b><b>2</b><c/></a>`)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	for _, want := range []string{"<!DOCTYPE a [", "<!ELEMENT a (b+,c)>", "<!ELEMENT c EMPTY>"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIDtdinferXSDAndAlgos(t *testing.T) {
	dir := t.TempDir()
	doc := writeFile(t, dir, "d.xml", `<r><x>7</x><x>8</x></r>`)
	out, code := runTool(t, "dtdinfer", "", "-format", "xsd", doc)
	if code != 0 || !strings.Contains(out, `<xs:schema`) {
		t.Fatalf("xsd output broken (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, `type="xs:integer"`) {
		t.Errorf("datatype detection missing:\n%s", out)
	}
	for _, algo := range []string{"crx", "xtract", "trang", "stateelim"} {
		out, code = runTool(t, "dtdinfer", "", "-algo", algo, doc)
		if code != 0 {
			t.Errorf("algo %s failed (exit %d): %s", algo, code, out)
		}
	}
	if _, code = runTool(t, "dtdinfer", "", "-algo", "nope", doc); code == 0 {
		t.Error("unknown algorithm must fail")
	}
}

func TestCLIValidateAndDiff(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "s.dtd", `<!DOCTYPE r [
<!ELEMENT r (x+)>
<!ELEMENT x (#PCDATA)>
]>`)
	good := writeFile(t, dir, "good.xml", `<r><x>1</x></r>`)
	bad := writeFile(t, dir, "bad.xml", `<r></r>`)
	out, code := runTool(t, "dtdvalidate", "", "-dtd", schema, good)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Errorf("good doc: exit %d, %s", code, out)
	}
	out, code = runTool(t, "dtdvalidate", "", "-dtd", schema, bad)
	if code != 1 || !strings.Contains(out, "do not match") {
		t.Errorf("bad doc: exit %d, %s", code, out)
	}

	schema2 := writeFile(t, dir, "s2.dtd", `<!DOCTYPE r [
<!ELEMENT r (x*)>
<!ELEMENT x (#PCDATA)>
]>`)
	out, code = runTool(t, "dtddiff", "", schema, schema2)
	if code != 1 || !strings.Contains(out, "r: stricter") {
		t.Errorf("diff: exit %d, %s", code, out)
	}
	out, code = runTool(t, "dtddiff", "", schema, schema)
	if code != 0 || !strings.Contains(out, "equivalent") {
		t.Errorf("self diff: exit %d, %s", code, out)
	}
}

func TestCLIXmlgenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "s.dtd", `<!DOCTYPE r [
<!ELEMENT r (x+,y?)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y EMPTY>
]>`)
	out, code := runTool(t, "xmlgen", "", "-dtd", schema, "-n", "5", "-seed", "3")
	if code != 0 {
		t.Fatalf("xmlgen: exit %d, %s", code, out)
	}
	docs := strings.Split(strings.TrimSpace(out), "\n")
	if len(docs) != 5 {
		t.Fatalf("got %d documents", len(docs))
	}
	// Every generated document validates against the schema it came from.
	for _, doc := range docs {
		path := writeFile(t, dir, "gen.xml", doc)
		if _, code := runTool(t, "dtdvalidate", "", "-dtd", schema, path); code != 0 {
			t.Errorf("generated document invalid: %s", doc)
		}
	}
	// String generation from an expression.
	out, code = runTool(t, "xmlgen", "", "-expr", "(a|b)+,c", "-n", "4")
	if code != 0 || len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Errorf("expr generation: exit %d, %s", code, out)
	}
}

func TestCLIExperimentsConciseness(t *testing.T) {
	out, code := runTool(t, "experiments", "", "-exp", "conciseness")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out)
	}
	if !strings.Contains(out, "((b? (a + c))+ d)+ e") || !strings.Contains(out, "blow-up factor") {
		t.Errorf("conciseness output broken:\n%s", out)
	}
	if _, code := runTool(t, "experiments", "", "-exp", "bogus"); code == 0 {
		t.Error("unknown experiment must fail")
	}
}

func TestCLIDtdinferSkipMalformedAndStats(t *testing.T) {
	dir := t.TempDir()
	good1 := writeFile(t, dir, "g1.xml", `<r><x>1</x><y/></r>`)
	bad := writeFile(t, dir, "bad.xml", `<r><x>broken</r>`)
	good2 := writeFile(t, dir, "g2.xml", `<r><x>2</x><x>3</x></r>`)

	// Fail-fast (the default) aborts on the malformed file.
	out, code := runTool(t, "dtdinfer", "", good1, bad, good2)
	if code == 0 {
		t.Fatalf("malformed input must fail by default:\n%s", out)
	}
	if !strings.Contains(out, "bad.xml") {
		t.Errorf("error does not name the failing file:\n%s", out)
	}

	// Skip-and-record infers from the documents that parsed and reports
	// the rejection in the stats.
	out, code = runTool(t, "dtdinfer", "", "-skip-malformed", "-stats", good1, bad, good2)
	if code != 0 {
		t.Fatalf("skip-malformed failed (exit %d):\n%s", code, out)
	}
	for _, want := range []string{"<!ELEMENT r (x+,y?)>", "ingested 2/3 documents (1 rejected)", "bad.xml", "inferred"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The skipped document does not change the result.
	clean, code := runTool(t, "dtdinfer", "", good1, good2)
	if code != 0 || !strings.Contains(out, strings.TrimSpace(clean[:strings.Index(clean, "\n")])) {
		t.Errorf("skip run diverges from clean run:\n%s\nvs\n%s", out, clean)
	}
}

func TestCLIDtdinferDecodingCaps(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		b.WriteString("<d>")
	}
	for i := 0; i < 5000; i++ {
		b.WriteString("</d>")
	}
	deep := writeFile(t, dir, "deep.xml", b.String())
	out, code := runTool(t, "dtdinfer", "", "-max-depth", "100", deep)
	if code == 0 || !strings.Contains(out, "depth") {
		t.Errorf("depth cap not enforced (exit %d):\n%s", code, out)
	}
	out, code = runTool(t, "dtdinfer", "", "-max-bytes", "64", deep)
	if code == 0 || !strings.Contains(out, "bytes") {
		t.Errorf("byte cap not enforced (exit %d):\n%s", code, out)
	}
	// Within caps the document is accepted.
	if out, code = runTool(t, "dtdinfer", "", "-hardened", deep); code != 0 {
		t.Errorf("hardened defaults rejected a sane document (exit %d):\n%s", code, out)
	}
}

func TestCLIDtdvalidateIDREFAndCaps(t *testing.T) {
	dir := t.TempDir()
	schema := writeFile(t, dir, "ref.dtd", `<!DOCTYPE db [
<!ELEMENT db (rec|ref)*>
<!ELEMENT rec EMPTY>
<!ELEMENT ref EMPTY>
<!ATTLIST rec id ID #REQUIRED>
<!ATTLIST ref to IDREF #REQUIRED>
]>`)
	ok := writeFile(t, dir, "ok.xml", `<db><ref to="a"/><rec id="a"/></db>`)
	dangling := writeFile(t, dir, "dangling.xml", `<db><rec id="a"/><ref to="zzz"/></db>`)
	out, code := runTool(t, "dtdvalidate", "", "-dtd", schema, ok)
	if code != 0 || !strings.Contains(out, "valid") {
		t.Errorf("forward reference must validate (exit %d):\n%s", code, out)
	}
	out, code = runTool(t, "dtdvalidate", "", "-dtd", schema, dangling)
	if code != 1 || !strings.Contains(out, "does not match any ID") {
		t.Errorf("dangling IDREF not reported (exit %d):\n%s", code, out)
	}
	deep := writeFile(t, dir, "deep.xml",
		strings.Repeat("<db>", 2000)+strings.Repeat("</db>", 2000))
	out, code = runTool(t, "dtdvalidate", "", "-dtd", schema, "-max-depth", "50", deep)
	if code != 1 || !strings.Contains(out, "depth") {
		t.Errorf("validator depth cap not enforced (exit %d):\n%s", code, out)
	}
}

func TestCLIDtddiffChangeFeed(t *testing.T) {
	dir := t.TempDir()
	v3 := writeFile(t, dir, "v3.dtd", `<!DOCTYPE r [
<!ELEMENT r (x+)>
<!ELEMENT x (#PCDATA)>
]>`)
	v4 := writeFile(t, dir, "v4.dtd", `<!DOCTYPE r [
<!ELEMENT r (x*,y?)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y EMPTY>
]>`)
	out, code := runTool(t, "dtddiff", "", "-feed", "-from", "3", v3, v4)
	if code != 1 {
		t.Errorf("changed feed must exit 1, got %d:\n%s", code, out)
	}
	for _, want := range []string{"v3→v4:", "modified <r>", "added <y>"} {
		if !strings.Contains(out, want) {
			t.Errorf("feed missing %q:\n%s", want, out)
		}
	}
	out, code = runTool(t, "dtddiff", "", "-feed", "-from", "4", "-to", "7", v4, v4)
	if code != 0 || !strings.Contains(out, "v4→v7: no changes") {
		t.Errorf("self feed: exit %d:\n%s", code, out)
	}
}

func TestCLIDtdinferStatsCacheLine(t *testing.T) {
	dir := t.TempDir()
	doc := writeFile(t, dir, "d.xml", `<r><x>1</x><y/></r>`)
	out, code := runTool(t, "dtdinfer", "", "-stats", doc)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "cache: 0 hits, 1 misses, 0 recomputes") {
		t.Errorf("stats output missing cache counters:\n%s", out)
	}
}

// TestCLIDtdinferContextBudgets: -context ingests and infers on the DTD
// path, so the per-element budgets, -degrade, -stats and -skip-malformed
// apply to every context.
func TestCLIDtdinferContextBudgets(t *testing.T) {
	dir := t.TempDir()
	doc := writeFile(t, dir, "store.xml", `<store>
  <book><name><title>T1</title><sub>S</sub></name><author><name><first>A</first><last>B</last></name></author></book>
  <book><name><title>T2</title></name><author><name><first>C</first><last>D</last></name></author></book>
</store>`)
	bad := writeFile(t, dir, "bad.xml", `<store><book></store>`)
	if out, code := runTool(t, "dtdinfer", "", "-context", "1", "-max-soa-states", "1", "-degrade", "fail", doc); code == 0 {
		t.Errorf("-degrade fail with an exceeded budget exited 0:\n%s", out)
	}

	cmd := exec.Command(filepath.Join(buildTools(t), "dtdinfer"),
		"-context", "1", "-max-soa-states", "1", "-stats", "-skip-malformed", doc, bad)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ladder run: %v\n%s%s", err, out, stderr.String())
	}
	for _, want := range []string{"ingested 1/2 documents (1 rejected)", "bad.xml", "book/name", "degraded idtd -> crx (budget: soa-states"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	for _, want := range []string{"type name.1 = (first,last)   [author/name]", "type name.2 = (title,sub?)   [book/name]"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("schema missing %q:\n%s", want, out)
		}
	}
}

// TestCLICorpusSaveLoad: -save-corpus then -load-corpus reproduces the
// direct run's DTD exactly, and a load-only run reads nothing from stdin.
func TestCLICorpusSaveLoad(t *testing.T) {
	dir := t.TempDir()
	d1 := writeFile(t, dir, "d1.xml", `<db><rec id="a1"><name>n</name></rec></db>`)
	d2 := writeFile(t, dir, "d2.xml", `<db><rec id="a2"><name>n</name><name>m</name></rec></db>`)
	corpus := filepath.Join(dir, "all.corpus")

	want, code := runTool(t, "dtdinfer", "", d1, d2)
	if code != 0 {
		t.Fatalf("direct run exit %d:\n%s", code, want)
	}
	if out, code := runTool(t, "dtdinfer", "", "-save-corpus", corpus, "-no-infer", d1, d2); code != 0 {
		t.Fatalf("save exit %d:\n%s", code, out)
	}
	// Stdin deliberately holds a document that would change the DTD; a
	// load-only run must ignore it.
	got, code := runTool(t, "dtdinfer", `<other/>`, "-load-corpus", corpus)
	if code != 0 {
		t.Fatalf("load exit %d:\n%s", code, got)
	}
	if got != want {
		t.Errorf("load-corpus run differs from direct run:\n got %s\nwant %s", got, want)
	}

	// Incremental top-up: loading the d1-only summary and ingesting d2
	// matches the direct two-document run.
	half := filepath.Join(dir, "half.corpus")
	if out, code := runTool(t, "dtdinfer", "", "-save-corpus", half, "-no-infer", d1); code != 0 {
		t.Fatalf("save half exit %d:\n%s", code, out)
	}
	got, code = runTool(t, "dtdinfer", "", "-load-corpus", half, d2)
	if code != 0 {
		t.Fatalf("incremental exit %d:\n%s", code, got)
	}
	if got != want {
		t.Errorf("load+ingest differs from direct run:\n got %s\nwant %s", got, want)
	}

	if out, code := runTool(t, "dtdinfer", "", "-context", "1", "-save-corpus", corpus, d1); code == 0 {
		t.Errorf("-context with -save-corpus accepted:\n%s", out)
	}
	if out, code := runTool(t, "dtdinfer", "", "-load-corpus", filepath.Join(dir, "missing.corpus")); code == 0 {
		t.Errorf("missing corpus file accepted:\n%s", out)
	}
	garbage := writeFile(t, dir, "garbage.corpus", "DTDS\x01 not a snapshot")
	if out, code := runTool(t, "dtdinfer", "", "-load-corpus", garbage); code == 0 {
		t.Errorf("corrupt corpus accepted:\n%s", out)
	}
}

// TestCLIDtdmerge: shard summaries merged by dtdmerge infer the same DTD
// as a single run over all documents, and -o round-trips the merge.
func TestCLIDtdmerge(t *testing.T) {
	dir := t.TempDir()
	docs := []string{
		`<db><rec id="a1" kind="x"><name>n</name></rec></db>`,
		`<db><rec id="a2" kind="y"><name>n</name><name>m</name></rec></db>`,
		`<db><note>t <b>b</b></note></db>`,
	}
	var files, shards []string
	for i, doc := range docs {
		f := writeFile(t, dir, fmt.Sprintf("d%d.xml", i), doc)
		files = append(files, f)
		shard := filepath.Join(dir, fmt.Sprintf("s%d.corpus", i))
		if out, code := runTool(t, "dtdinfer", "", "-save-corpus", shard, "-no-infer", f); code != 0 {
			t.Fatalf("shard %d exit %d:\n%s", i, code, out)
		}
		shards = append(shards, shard)
	}
	want, code := runTool(t, "dtdinfer", "", files...)
	if code != 0 {
		t.Fatalf("direct run exit %d:\n%s", code, want)
	}
	got, code := runTool(t, "dtdmerge", "", shards...)
	if code != 0 {
		t.Fatalf("dtdmerge exit %d:\n%s", code, got)
	}
	if got != want {
		t.Errorf("dtdmerge DTD differs from single-run DTD:\n got %s\nwant %s", got, want)
	}

	merged := filepath.Join(dir, "merged.corpus")
	if out, code := runTool(t, "dtdmerge", "", append([]string{"-o", merged, "-no-infer"}, shards...)...); code != 0 {
		t.Fatalf("merge -o exit %d:\n%s", code, out)
	}
	got, code = runTool(t, "dtdinfer", "", "-load-corpus", merged)
	if code != 0 {
		t.Fatalf("load merged exit %d:\n%s", code, got)
	}
	if got != want {
		t.Errorf("merged summary infers differently:\n got %s\nwant %s", got, want)
	}

	if out, code := runTool(t, "dtdmerge", ""); code == 0 {
		t.Errorf("dtdmerge with no arguments accepted:\n%s", out)
	}
}
