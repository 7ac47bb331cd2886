package contextual

import (
	"encoding/xml"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dtdinfer/internal/core"
	"dtdinfer/internal/corpus"
	"dtdinfer/internal/dtd"
)

// The classic vertical-typing example: name under book has a different
// content model than name under author. A DTD cannot express this; the
// contextual schema with k = 1 can.
const storeDoc = `<store>
  <book><name><title>T1</title><sub>S</sub></name><author><name><first>A</first><last>B</last></name></author></book>
  <book><name><title>T2</title></name><author><name><first>C</first><last>D</last></name></author></book>
</store>`

// inferSchema builds the contextual schema of docs at depth k with iDTD.
func inferSchema(t *testing.T, k int, docs ...string) *Schema {
	t.Helper()
	s, err := goldenSchema(docs, k, core.IDTD)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func inferStore(t *testing.T, k int) *Schema {
	t.Helper()
	return inferSchema(t, k, storeDoc)
}

func TestContextualSplitsNameTypes(t *testing.T) {
	s := inferStore(t, 1)
	multi := s.MultiTypeElements()
	if len(multi) != 1 || multi[0] != "name" {
		t.Fatalf("MultiTypeElements = %v, want [name]", multi)
	}
	if s.IsDTDExpressible() {
		t.Error("schema with two name types is not DTD-expressible")
	}
	bookName := s.TypeOf("book/name")
	authorName := s.TypeOf("author/name")
	if bookName == nil || authorName == nil {
		t.Fatal("contexts missing")
	}
	if bookName == authorName {
		t.Fatal("the two name contexts must have distinct types")
	}
	if got := bookName.Model.String(); got != "title sub?" {
		t.Errorf("book/name model = %q", got)
	}
	if got := authorName.Model.String(); got != "first last" {
		t.Errorf("author/name model = %q", got)
	}
	if s.Root != "store" {
		t.Errorf("root = %q", s.Root)
	}
}

func TestContextualMergesEquivalentContexts(t *testing.T) {
	// name under book and under journal have the same model: one type.
	doc := `<lib>
	  <book><name><title>T</title></name></book>
	  <journal><name><title>J</title></name></journal>
	</lib>`
	s := inferSchema(t, 1, doc)
	if !s.IsDTDExpressible() {
		t.Errorf("equivalent contexts must merge:\n%s", s)
	}
	bn, jn := s.TypeOf("book/name"), s.TypeOf("journal/name")
	if bn == nil || bn != jn {
		t.Errorf("book/name and journal/name should share one type")
	}
	if bn.Name != "name" {
		t.Errorf("single type keeps the bare element name, got %q", bn.Name)
	}
}

func TestContextualKZeroIsDTD(t *testing.T) {
	s := inferStore(t, 0)
	if !s.IsDTDExpressible() {
		t.Fatalf("k=0 schema must be a DTD:\n%s", s)
	}
	// With k=0 the two name populations blend into one model.
	ty := s.TypeOf("name")
	if ty == nil {
		t.Fatal("name type missing")
	}
	for _, sym := range []string{"title", "first"} {
		found := false
		for _, x := range ty.Model.Symbols() {
			if x == sym {
				found = true
			}
		}
		if !found {
			t.Errorf("k=0 name model %s should mention %s", ty.Model, sym)
		}
	}
}

func TestToDTDLosslessWhenSingleTyped(t *testing.T) {
	doc := `<r><a><x>1</x></a><a><x>2</x><x>3</x></a></r>`
	s := inferSchema(t, 1, doc)
	if !s.IsDTDExpressible() {
		t.Fatal("single-typed schema expected")
	}
	d := s.ToDTD()
	if got := d.Elements["a"].Model.String(); got != "x+" {
		t.Errorf("a model = %q", got)
	}
	if d.Elements["x"].Type != dtd.PCData {
		t.Errorf("x should be #PCDATA")
	}
}

func TestToDTDOverApproximatesMultiTyped(t *testing.T) {
	s := inferStore(t, 1)
	d := s.ToDTD()
	// The flattened name model must cover both context languages.
	model := d.Elements["name"].Model
	v := dtd.NewValidator(d)
	_ = v
	for _, w := range [][]string{{"title"}, {"title", "sub"}, {"first", "last"}} {
		if !model.Match(w) {
			t.Errorf("flattened name model %s rejects %v", model, w)
		}
	}
	// And the DTD validates the original document.
	vd := dtd.NewValidator(d)
	violations, err := vd.Validate(strings.NewReader(storeDoc))
	if err != nil || len(violations) != 0 {
		t.Errorf("flattened DTD rejects the corpus: %v %v", err, violations)
	}
}

func TestSchemaString(t *testing.T) {
	s := inferStore(t, 1)
	out := s.String()
	for _, want := range []string{"type name.1", "type name.2", "book/name", "author/name"} {
		if !strings.Contains(out, want) {
			t.Errorf("schema rendering missing %q:\n%s", want, out)
		}
	}
}

func TestContextualRejectsBadXML(t *testing.T) {
	x := dtd.NewContextExtraction(1)
	if err := x.AddDocument(strings.NewReader("<a><b></a>")); err == nil {
		t.Fatal("want error")
	}
}

func TestDeepContexts(t *testing.T) {
	// k=2 distinguishes by grandparent as well.
	doc := `<r>
	  <u><w><q>1</q></w></u>
	  <v><w><q>2</q><q>3</q></w></v>
	  <u><w><q>4</q></w></u>
	  <v><w><q>5</q><q>6</q></w></v>
	</r>`
	s := inferSchema(t, 2, doc)
	uw, vw := s.TypeOf("r/u/w"), s.TypeOf("r/v/w")
	if uw == nil || vw == nil {
		t.Fatalf("grandparent contexts missing:\n%s", s)
	}
	if uw == vw {
		t.Errorf("w under u (one q) and under v (two q) must differ:\n%s", s)
	}
}

func TestContextualXSDEmission(t *testing.T) {
	s := inferStore(t, 1)
	out := s.ToXSD()
	// Well-formed XML.
	var probe interface{}
	if err := xmlUnmarshal(out, &probe); err != nil {
		t.Fatalf("XSD not well-formed: %v\n%s", err, out)
	}
	for _, want := range []string{
		`<xs:element name="store" type="t-store"/>`,
		`<xs:complexType name="t-name.1">`,
		`<xs:complexType name="t-name.2">`,
		`type="t-name.1"`,
		`type="t-name.2"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("XSD missing %q:\n%s", want, out)
		}
	}
}

func TestContextualValidator(t *testing.T) {
	s := inferStore(t, 1)
	v := NewValidator(s)
	if !v.ValidDocument(storeDoc) {
		violations, _ := v.Validate(strings.NewReader(storeDoc))
		t.Fatalf("training document rejected: %v", violations)
	}
	// A DTD validator could not catch this: author/name with book/name
	// content. The contextual validator must.
	bad := `<store><book><name><title>T</title></name>` +
		`<author><name><title>X</title></name></author></book></store>`
	violations, err := v.Validate(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, viol := range violations {
		if strings.Contains(viol.Reason, "do not match type") {
			found = true
		}
	}
	if !found {
		t.Errorf("context-sensitive violation not detected: %v", violations)
	}
	// The flattened DTD accepts the same document: the precision gain is
	// real.
	dv := dtd.NewValidator(s.ToDTD())
	vs, err := dv.Validate(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Errorf("flattened DTD should accept the confusable document, got %v", vs)
	}
}

func TestContextualValidatorUnknownContext(t *testing.T) {
	s := inferStore(t, 1)
	v := NewValidator(s)
	violations, err := v.Validate(strings.NewReader(`<store><magazine/></store>`))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, viol := range violations {
		if strings.Contains(viol.Reason, "no type for context") {
			found = true
		}
	}
	if !found {
		t.Errorf("unknown context not reported: %v", violations)
	}
}

func xmlUnmarshal(s string, v interface{}) error {
	return xml.Unmarshal([]byte(s), v)
}

// Refinement proper: two w-contexts share the local model (q) but their
// q-children have different types, so the bisimulation condition forces a
// split of w — only visible at k = 2, where the child context keeps the
// grandparent.
func TestRefinementSplitsOnChildTypes(t *testing.T) {
	doc := `<r>
	  <u><w><q><z>x</z></q></w></u>
	  <v><w><q/></w></v>
	  <u><w><q><z>y</z></q></w></u>
	  <v><w><q/></w></v>
	</r>`
	s := inferSchema(t, 2, doc)
	uw, vw := s.TypeOf("r/u/w"), s.TypeOf("r/v/w")
	if uw == nil || vw == nil {
		t.Fatalf("contexts missing:\n%s", s)
	}
	if uw == vw {
		t.Fatalf("same local model but different child types: refinement must split w\n%s", s)
	}
	// And the XSD binds each w type's q to the right q type.
	out := s.ToXSD()
	if !strings.Contains(out, `name="q" type="t-q.`) {
		t.Errorf("local q declarations missing type bindings:\n%s", out)
	}
}

func TestContextualMixedEmptyAndValidation(t *testing.T) {
	doc := `<r><p>text <b>bold</b> more</p><p>plain</p><hr/></r>`
	s := inferSchema(t, 1, doc)
	out := s.ToXSD()
	for _, want := range []string{`mixed="true"`, `<xs:complexType name="t-hr"/>`} {
		if !strings.Contains(out, want) {
			t.Errorf("XSD missing %q:\n%s", want, out)
		}
	}
	v := NewValidator(s)
	if !v.ValidDocument(doc) {
		t.Error("training doc rejected")
	}
	cases := []struct{ doc, reason string }{
		{`<r><p>t</p><p>x</p><hr>oops</hr></r>`, "EMPTY element has content"},
		{`<r><p><i/>t</p><p>x</p><hr/></r>`, "not allowed in mixed content"},
		{`<x/>`, "root is x"},
	}
	for _, tc := range cases {
		violations, err := v.Validate(strings.NewReader(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, viol := range violations {
			if strings.Contains(viol.Reason, tc.reason) {
				found = true
			}
		}
		if !found {
			t.Errorf("doc %q: want %q, got %v", tc.doc, tc.reason, violations)
		}
	}
}

func TestToDTDMergesMixedTypes(t *testing.T) {
	// name is mixed under book, plain text under author: the flattened DTD
	// merges to mixed content.
	doc := `<r><book><name>t <em>x</em></name></book><author><name>plain</name></author></r>`
	s := inferSchema(t, 1, doc)
	d := s.ToDTD()
	if d.Elements["name"].Type != dtd.Mixed {
		t.Errorf("flattened name should be mixed, got %v", d.Elements["name"].Type)
	}
}

func TestToDTDMixedMergeKeepsChildSymbols(t *testing.T) {
	// name has element content (t) under b but plain text under a. The
	// flattened mixed model must keep t as an alternative — previously the
	// Children-kind symbols were dropped, yielding the invalid (#PCDATA|)*.
	doc := `<s><b><name><t>x</t></name></b><a><name>y</name></a></s>`
	s := inferSchema(t, 1, doc)
	d := s.ToDTD()
	name := d.Elements["name"]
	if name.Type != dtd.Mixed || len(name.MixedNames) != 1 || name.MixedNames[0] != "t" {
		t.Errorf("flattened name = %s, want (#PCDATA|t)*", name)
	}
	if strings.Contains(d.String(), "|)") {
		t.Errorf("flattened DTD contains an empty alternative:\n%s", d)
	}
}

// snapshotCtx renders a context extraction's sequences, text flags and
// roots deterministically for atomicity checks.
func snapshotCtx(x *dtd.Extraction) string {
	var b strings.Builder
	ctxs := make([]string, 0, len(x.Sequences))
	for c := range x.Sequences {
		ctxs = append(ctxs, c)
	}
	sort.Strings(ctxs)
	for _, c := range ctxs {
		fmt.Fprintf(&b, "seq %s:", c)
		for _, s := range x.Sequences[c].Strings() {
			fmt.Fprintf(&b, " [%s]", strings.Join(s, ","))
		}
		b.WriteByte('\n')
	}
	ctxs = ctxs[:0]
	for c := range x.HasText {
		ctxs = append(ctxs, c)
	}
	sort.Strings(ctxs)
	for _, c := range ctxs {
		fmt.Fprintf(&b, "text %s=%v\n", c, x.HasText[c])
	}
	roots := make([]string, 0, len(x.Roots))
	for r := range x.Roots {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		fmt.Fprintf(&b, "root %s=%d\n", r, x.Roots[r])
	}
	return b.String()
}

func TestAddDocumentAtomicOnParseError(t *testing.T) {
	x := dtd.NewContextExtraction(1)
	if err := x.AddDocument(strings.NewReader(storeDoc)); err != nil {
		t.Fatal(err)
	}
	before := snapshotCtx(x)
	// Breaks after several well-formed elements.
	bad := `<store><book><name><title>T</title></name></book><book><oops></store>`
	if err := x.AddDocument(strings.NewReader(bad)); err == nil {
		t.Fatal("malformed document must fail")
	}
	if after := snapshotCtx(x); after != before {
		t.Errorf("failed AddDocument mutated the extraction:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// Truncated document: unbalanced at EOF.
	if err := x.AddDocument(strings.NewReader(`<store><book>`)); err == nil {
		t.Fatal("truncated document must fail")
	}
	if after := snapshotCtx(x); after != before {
		t.Errorf("truncated document mutated the extraction")
	}
}

func TestAddDocumentOptionsLimits(t *testing.T) {
	deep := strings.Repeat("<d>", 5000) + strings.Repeat("</d>", 5000)
	x := dtd.NewContextExtraction(1)
	err := x.AddDocumentOptions(strings.NewReader(deep), &dtd.IngestOptions{MaxDepth: 100})
	if !errors.Is(err, dtd.ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
	if len(x.Sequences) != 0 || len(x.Roots) != 0 {
		t.Error("rejected document leaked state")
	}
	for _, opts := range []dtd.IngestOptions{
		{MaxBytes: 32},
		{MaxTokens: 16},
		{MaxNames: 0, MaxDepth: 0, MaxTokens: 0, MaxBytes: 64},
	} {
		x := dtd.NewContextExtraction(1)
		if err := x.AddDocumentOptions(strings.NewReader(deep), &opts); !errors.Is(err, dtd.ErrLimit) {
			t.Errorf("opts %+v: want ErrLimit, got %v", opts, err)
		}
	}
	// MaxNames: the wide document has 5 distinct names.
	wide := `<r><a/><b/><c/><d/></r>`
	x = dtd.NewContextExtraction(1)
	if err := x.AddDocumentOptions(strings.NewReader(wide), &dtd.IngestOptions{MaxNames: 3}); !errors.Is(err, dtd.ErrLimit) {
		t.Errorf("names cap not enforced: %v", err)
	}
	if err := x.AddDocumentOptions(strings.NewReader(wide), nil); err != nil {
		t.Errorf("unlimited ingestion failed: %v", err)
	}
}

// TestMergeContextual checks that merging two context extractions gives
// what ingesting both documents into one does, including a context
// (name under book vs name under author) that only one side has seen.
func TestMergeContextual(t *testing.T) {
	direct := dtd.NewContextExtraction(1)
	docA := `<store><book><name><title>T</title></name></book></store>`
	docB := `<store><author><name>plain</name></author></store>`
	for _, d := range []string{docA, docB} {
		if err := direct.AddDocument(strings.NewReader(d)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := dtd.NewContextExtraction(1), dtd.NewContextExtraction(1)
	if err := a.AddDocument(strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(strings.NewReader(docB)); err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if snapshotCtx(a) != snapshotCtx(direct) {
		t.Errorf("merge differs from direct ingestion:\n%s\nvs\n%s", snapshotCtx(a), snapshotCtx(direct))
	}
	for _, c := range []string{"book/name", "author/name"} {
		if a.Sequences[c] == nil {
			t.Errorf("merged extraction lacks context %s:\n%s", c, snapshotCtx(a))
		}
	}
}

// TestDeepNestingAllocs bounds what a context extraction allocates on
// deep documents. A start tag costs one memo probe whatever the depth,
// so 5,000 nested elements allocate what they do at depth 0 (about
// 1.2 MB); a decode loop that builds each context from a copy of the
// open-element stack allocates over 200 MB here.
func TestDeepNestingAllocs(t *testing.T) {
	const bound = 8 << 20
	deep := strings.Repeat("<a>", 5000) + strings.Repeat("</a>", 5000)
	for _, k := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		x := dtd.NewContextExtraction(k)
		if err := x.AddDocument(strings.NewReader(deep)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("k=%d: 5,000 nested elements allocated %d bytes, bound %d", k, got, bound)
		}
	}
}

// retainedHeap returns the heap that build's result keeps alive. Two
// collections on each side also empty sync.Pool victim caches.
func retainedHeap(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestContextExtractionRetainedHeap: a depth-1 extraction keeps counted,
// interned samples like a plain one, so on 2,000 Protein documents it
// retains at most twice the depth-0 extraction's heap (about 0.8 MB
// against 0.7 MB; verbatim per-context string samples retained 14 MB).
func TestContextExtractionRetainedHeap(t *testing.T) {
	docs := corpus.Protein(1, 2000)
	retained := func(k int) int64 {
		return retainedHeap(func() any {
			x := dtd.NewContextExtraction(k)
			for _, doc := range docs {
				if err := x.AddDocument(strings.NewReader(doc)); err != nil {
					t.Fatal(err)
				}
			}
			return x
		})
	}
	plain, ctx := retained(0), retained(1)
	if plain <= 0 || ctx > 2*plain {
		t.Errorf("retained heap: k=1 %d bytes, k=0 %d bytes; want k=1 at most twice k=0", ctx, plain)
	}
}
