package dtd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"dtdinfer/internal/intern"
	"dtdinfer/internal/sample"
	"dtdinfer/internal/xmltok"
)

// The ingestion path: a fastIngester drives the structure-only tokenizer
// (internal/xmltok) and stages one document's observations in a
// worker-local interned symbol space — no intermediate strings on the
// repeat path — then folds an accepted document into the fastShard it is
// staging. A batch's shards fold into the corpus extraction only through
// commitFastShard (pipeline.go), on every path: the sequential one stages
// its whole batch as one shard on the calling goroutine. The encoding/xml
// loop ingestion replaced lives on in the tests as the
// differential-testing oracle; FuzzTokenizerEquivalence holds the two to
// identical acceptance and identical extraction state.

// fastFrame is one open element during fast extraction.
type fastFrame struct {
	// wid is the element's staging key: its name's symbol ID, or at
	// context depth k > 0 its context's.
	wid int32
	// childStart is the start of this element's children span in childBuf.
	childStart int
	// nBinds counts xmlns prefix bindings this element introduced, undone
	// when it closes.
	nBinds int
}

// attStage stages one element/attribute's statistics for a document or
// a shard. It persists across documents (keyed maps and buffers are
// reused); epoch marks the document or shard generation it was last
// reset for. Byte-keyed lookups into idx on the repeat path are
// allocation-free.
type attStage struct {
	name  string
	epoch int64
	attStats
}

// elemStage stages one element name's (or context's) per-document
// observations, indexed by worker-local symbol ID. Buffers persist across
// documents; epoch marks the document the stage was last reset for, so a
// rejected document's leftovers are invisible to the next one.
type elemStage struct {
	epoch int64
	// hasText marks non-whitespace character data; texts stages up to
	// textCap trimmed samples (the room the corpus had for the element
	// when the call began, less what the shard already holds, so a full
	// element costs no string materialization at all). textOverflow
	// records that at least one sample was dropped at the cap, so the
	// kept set is incomplete.
	hasText      bool
	texts        []string
	textCap      int
	textOverflow bool
	// atts stages attribute statistics; attsTouched lists the ones active
	// this document in first-touch order.
	atts        map[string]*attStage
	attsTouched []*attStage
}

// fastIngester drives xmltok over documents and stages observations in a
// worker-local dense symbol space. One instance serves one call: the
// sequential batch, or a pipeline worker's run of shards. The tokenizer,
// the intern table and every staging buffer are reused across documents,
// so the per-document cost on a warmed-up corpus is map probes and slice
// appends, not allocations. That state makes an instance
// single-goroutine.
//
// The worker-local intern table grows with every distinct element name
// the worker ever sees, including names from documents that are later
// rejected; MaxNames bounds the growth per document, and the table dies
// with the batch.
//
// At context depth k > 0 the same table also interns contexts, which
// contain '/' and so never collide with a name. Staging is keyed by an
// element's context ID while sequences hold children's name IDs; a
// child's context ID comes from ctxMemo, keyed by (parent context ID,
// child name ID), so a start tag costs one probe at any depth and the
// context string is built once per distinct pair. MaxNames still counts
// names: a document of n distinct names has at most n^(k+1) contexts.
type fastIngester struct {
	tok   *xmltok.Tokenizer
	names *intern.Table

	k       int
	ctxMemo map[uint64]int32

	epoch   int64
	elems   []*elemStage // indexed by worker-local symbol ID
	touched []int32      // symbols staged this document, first-touch order

	// At k > 0, nameEpoch[w] is the last document that opened an element
	// named w, and docNames counts this document's distinct names against
	// MaxNames.
	nameEpoch []int64
	docNames  int

	stack    []fastFrame
	childBuf []int32 // concatenated children spans of the open elements
	rootBuf  []int32
	// seqs concatenates the children sequences of the document's closed
	// elements in closing order, each led by its element's staging ID
	// (the key the shard's multiset files it under) and ended by -1.
	seqs []int32

	// ns tracks the open elements' xmlns prefix bindings for the
	// extraction filter's namespace-declaration corner.
	ns nsScope

	// shard receives every accepted document's observations (see
	// commitToShard); runIngest sets it for the shard being staged.
	shard *fastShard
	// held is the corpus's text samples per element as they stood before
	// any shard of the call was staged: a snapshot nothing writes while
	// the ingester runs. It caps text staging at the corpus's room.
	held map[string][]string
}

// newFastIngester returns an ingester keying observations by contexts of
// k ancestor names (0: by element name), capping text staging by the
// samples held; its shards must fold into an extraction of the same
// depth.
func newFastIngester(k int, held map[string][]string) *fastIngester {
	f := &fastIngester{tok: xmltok.NewTokenizer(), names: intern.NewTable(), k: k, held: held}
	if k > 0 {
		f.ctxMemo = map[uint64]int32{}
	}
	return f
}

// ingestOne decodes one document under the caps of opts (nil applies
// none), checking the context every cancelCheckInterval tokens, and
// folds its observations into f.shard only on success: on error the
// shard is untouched. A context that can never be cancelled (Done() ==
// nil) costs nothing in the loop. On cancellation the document fails
// with ctx.Err(), which callers treat as batch abortion rather than a
// per-document fault.
func (f *fastIngester) ingestOne(ctx context.Context, r io.Reader, opts *IngestOptions) (docStats, error) {
	var o IngestOptions
	if opts != nil {
		o = *opts
	}
	f.beginDoc()
	done := ctx.Done()
	mr := &meteredReader{r: r, max: o.MaxBytes}
	tok := f.tok
	tok.Reset(mr)
	var stats docStats
	for {
		if done != nil && stats.tokens%cancelCheckInterval == 0 {
			select {
			case <-done:
				return stats, ctx.Err()
			default:
			}
		}
		kind, err := tok.Next()
		stats.bytes = mr.n
		if err == io.EOF {
			break
		}
		if err != nil {
			var le *LimitError
			if errors.As(err, &le) {
				return stats, le
			}
			return stats, fmt.Errorf("dtd: parsing XML: %w", err)
		}
		stats.tokens++
		if o.MaxTokens > 0 && stats.tokens > o.MaxTokens {
			return stats, &LimitError{Limit: "tokens", Max: o.MaxTokens, Offset: tok.InputOffset()}
		}
		switch kind {
		case xmltok.StartElement:
			stats.elements++
			if o.MaxDepth > 0 && len(f.stack) >= o.MaxDepth {
				return stats, &LimitError{Limit: "depth", Max: int64(o.MaxDepth), Offset: tok.InputOffset()}
			}
			if err := f.startElement(tok, &o); err != nil {
				return stats, err
			}
		case xmltok.EndElement:
			f.endElement()
		case xmltok.CharData:
			f.charData(tok.Text())
		}
	}
	if len(f.stack) != 0 {
		// Unreachable in practice — the tokenizer turns EOF with open
		// elements into a syntax error — but kept as a backstop.
		return stats, fmt.Errorf("dtd: unbalanced XML document")
	}
	f.commitToShard(f.shard)
	return stats, nil
}

// beginDoc resets the per-document state, including leftovers of a
// previous document that failed mid-parse.
func (f *fastIngester) beginDoc() {
	f.epoch++
	f.touched = f.touched[:0]
	f.stack = f.stack[:0]
	f.childBuf = f.childBuf[:0]
	f.rootBuf = f.rootBuf[:0]
	f.seqs = f.seqs[:0]
	f.docNames = 0
	f.ns.reset()
}

// stage returns the element's staging slot, resetting it on first touch
// this document and recording it in the touched list.
func (f *fastIngester) stage(w int32) *elemStage {
	st := f.elems[w]
	if st == nil {
		st = &elemStage{}
		f.elems[w] = st
	}
	if st.epoch != f.epoch {
		st.epoch = f.epoch
		st.hasText = false
		st.texts = st.texts[:0]
		st.textCap = -1
		st.textOverflow = false
		st.attsTouched = st.attsTouched[:0]
		f.touched = append(f.touched, w)
	}
	return st
}

func (f *fastIngester) startElement(tok *xmltok.Tokenizer, o *IngestOptions) error {
	w := int32(f.names.InternBytes(tok.Name()))
	c := w
	if f.k > 0 {
		var err error
		if c, err = f.contextOf(w, tok, o); err != nil {
			return err
		}
	} else if o.MaxNames > 0 && len(f.touched) >= o.MaxNames && !f.staged(w) {
		// At k = 0 the staged elements are the names this document opened.
		return &LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: tok.InputOffset()}
	}
	for len(f.elems) <= int(c) {
		f.elems = append(f.elems, nil)
	}
	st := f.stage(c)
	if len(f.stack) == 0 {
		f.rootBuf = append(f.rootBuf, w)
	} else {
		f.childBuf = append(f.childBuf, w)
	}
	nBinds := 0
	if attrs := tok.Attr(); len(attrs) > 0 {
		nBinds = f.recordAttrs(st, attrs)
	}
	f.stack = append(f.stack, fastFrame{wid: c, childStart: len(f.childBuf), nBinds: nBinds})
	return nil
}

// staged reports whether symbol w has a staging slot this document.
func (f *fastIngester) staged(w int32) bool {
	return int(w) < len(f.elems) && f.elems[w] != nil && f.elems[w].epoch == f.epoch
}

// contextOf returns the context ID of an element named w opening under
// the open elements at depth k > 0, interning the context string on the
// first sight of its (parent context, name) pair. The staged elements are
// contexts here, so it counts w against MaxNames apart from them.
func (f *fastIngester) contextOf(w int32, tok *xmltok.Tokenizer, o *IngestOptions) (int32, error) {
	if o.MaxNames > 0 {
		for len(f.nameEpoch) <= int(w) {
			f.nameEpoch = append(f.nameEpoch, 0)
		}
		if f.nameEpoch[w] != f.epoch {
			if f.docNames >= o.MaxNames {
				return 0, &LimitError{Limit: "names", Max: int64(o.MaxNames), Offset: tok.InputOffset()}
			}
			f.nameEpoch[w] = f.epoch
			f.docNames++
		}
	}
	if len(f.stack) == 0 {
		return w, nil // a root's context is its name
	}
	parent := f.stack[len(f.stack)-1].wid
	key := uint64(uint32(parent))<<32 | uint64(uint32(w))
	c, ok := f.ctxMemo[key]
	if !ok {
		c = int32(f.names.Intern(ChildContext(f.names.Name(int(parent)), f.names.Name(int(w)), f.k)))
		f.ctxMemo[key] = c
	}
	return c, nil
}

// recordAttrs stages one start tag's attributes, skipping namespace
// declarations as encoding/xml's name translation would (see nsScope).
func (f *fastIngester) recordAttrs(st *elemStage, attrs []xmltok.Attr) (nBinds int) {
	nBinds = f.ns.open(attrs)
	for i := range attrs {
		a := &attrs[i]
		if f.ns.inXmlnsSpace(a) || (len(a.Prefix) == 0 && string(a.Local) == "xmlns") {
			continue
		}
		f.recordAttr(st, a.Local, a.Value)
	}
	return nBinds
}

// recordAttr stages one attribute occurrence under the per-document
// distinct-value cap, byte-keyed so repeated names and values cost no
// allocation.
func (f *fastIngester) recordAttr(st *elemStage, name, val []byte) {
	if st.atts == nil {
		st.atts = map[string]*attStage{}
	}
	a := st.atts[string(name)]
	if a == nil {
		a = &attStage{name: string(name)}
		st.atts[a.name] = a
	}
	if a.epoch != f.epoch {
		a.epoch = f.epoch
		a.reset()
		st.attsTouched = append(st.attsTouched, a)
	}
	a.present++
	if slot, ok := a.idx[string(val)]; ok {
		a.vals[slot].n++
	} else if len(a.vals) < maxAttValues {
		a.insert(string(val), 1)
	} else {
		a.overflow = true
	}
}

func (f *fastIngester) endElement() {
	fr := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	f.seqs = append(f.seqs, fr.wid)
	f.seqs = append(f.seqs, f.childBuf[fr.childStart:]...)
	f.seqs = append(f.seqs, -1)
	f.childBuf = f.childBuf[:fr.childStart]
	f.ns.close(fr.nBinds)
}

func (f *fastIngester) charData(text []byte) {
	if len(f.stack) == 0 {
		return
	}
	trimmed := bytes.TrimSpace(text)
	if len(trimmed) == 0 {
		return
	}
	w := f.stack[len(f.stack)-1].wid
	st := f.stage(w)
	st.hasText = true
	if st.textCap < 0 {
		held := len(f.held[f.names.Name(int(w))])
		st.textCap = max(maxTextSamples-held-f.shard.textLen(w), 0)
	}
	if len(st.texts) < st.textCap {
		st.texts = append(st.texts, string(trimmed))
	} else {
		st.textOverflow = true
	}
}

// shardElem is one element's scalar observations accumulated across a
// shard's accepted documents, still keyed by the staging worker's symbol
// space: text, attributes and roots. Its children sequences are in the
// shard's multiset. Nothing here holds a target ID or an element-name
// string beyond attribute names and text values.
type shardElem struct {
	// epoch marks the fastShard generation this slot was last reset for;
	// a recycled shard bumps its epoch instead of clearing every slot.
	epoch int64
	// hasText/texts/textOverflow accumulate like elemStage's fields; the
	// documents' text caps keep texts within the corpus's room.
	hasText      bool
	texts        []string
	textOverflow bool
	// roots counts how often the element was a document root.
	roots int
	// atts accumulates attribute statistics in first-seen order (attList),
	// so the final commit folds values deterministically even at the
	// distinct-value cap.
	atts    map[string]*attStage
	attList []*attStage
}

// resetContent empties the slot's observations for a new shard
// generation, keeping allocated storage. Staged attStages are reset
// lazily by foldAttr through their own epoch marks.
func (se *shardElem) resetContent() {
	se.hasText = false
	for i := range se.texts {
		se.texts[i] = ""
	}
	se.texts = se.texts[:0]
	se.textOverflow = false
	se.roots = 0
	se.attList = se.attList[:0]
}

// fastShard stages one shard's accepted documents entirely in the owning
// worker's symbol space: one counted multiset of every element's
// children sequences plus per-element scalar observations. runIngest
// fills it with commitToShard (per accepted document, keeping failure
// atomicity) and seals it with sealNames; commitFastShard then folds it
// into the corpus extraction — the only place worker-local IDs are
// translated, via per-worker cached remaps. The sequential path stages
// its whole batch as one shard; the pipeline ships a shard per claim to
// its committer and recycles committed ones through a free list: reset
// bumps the epoch and slot() lazily re-initializes storage.
type fastShard struct {
	// seqs counts every distinct children sequence, led by its element's
	// ID, in first-seen order: one multiset for the whole shard, so a
	// shard of one small document allocates one index, not one per
	// element.
	seqs sample.Multiset
	// perElem is indexed by the owning worker's symbol ID; touched lists
	// the populated slots in first-touch order across the shard's
	// documents, which is exactly the order sequential ingestion would
	// first observe them.
	perElem   []*shardElem
	touched   []int32
	documents int
	// epoch is the reuse generation; a slot whose epoch differs was last
	// touched by a previous tenant of this arena.
	epoch int64
	// names is the symbol-name snapshot sealed when the shard was
	// shipped: names[w] resolves the worker-local ID w. Captured by the
	// worker so the committer never reads the worker's live, still-growing
	// table.
	names []string
}

// slot returns the shard stage for element w, creating or lazily
// resetting it (and recording the first touch) on demand.
func (sh *fastShard) slot(w int32) *shardElem {
	for len(sh.perElem) <= int(w) {
		sh.perElem = append(sh.perElem, nil)
	}
	se := sh.perElem[w]
	if se == nil {
		se = &shardElem{epoch: -1}
		sh.perElem[w] = se
	}
	if se.epoch != sh.epoch {
		se.epoch = sh.epoch
		se.resetContent()
		sh.touched = append(sh.touched, w)
	}
	return se
}

// sealNames snapshots the staging worker's symbol strings into the shard,
// so the committer resolves worker-local IDs from an immutable slice
// while the worker keeps interning into its live table. The strings
// themselves are immutable and shared; only the slice header array is
// copied.
func (sh *fastShard) sealNames(names *intern.Table) { sh.names = names.Names() }

// reset prepares a committed shard for reuse, keeping allocated storage.
// Per-slot state resets lazily: bumping the epoch invalidates every
// shardElem at once and slot() re-initializes on first touch.
func (sh *fastShard) reset() {
	sh.epoch++
	sh.seqs.Reset()
	sh.touched = sh.touched[:0]
	sh.documents = 0
	sh.names = nil
}

// textLen returns how many text samples the shard has staged for w.
func (sh *fastShard) textLen(w int32) int {
	if int(w) < len(sh.perElem) {
		if se := sh.perElem[w]; se != nil && se.epoch == sh.epoch {
			return len(se.texts)
		}
	}
	return 0
}

// commitToShard folds one successfully decoded document's staged
// observations into the worker's shard stage. Everything is already in
// the worker's symbol space, so this is pure ID and counter work — no
// strings, no target maps — and a rejected document never reaches it.
func (f *fastIngester) commitToShard(sh *fastShard) {
	start := 0
	for i, id := range f.seqs {
		if id < 0 {
			sh.seqs.AddIDs(f.seqs[start:i], 1)
			start = i + 1
		}
	}
	for _, w := range f.touched {
		st := f.elems[w]
		se := sh.slot(w)
		if st.hasText {
			se.hasText = true
		}
		if st.textOverflow {
			se.textOverflow = true
		}
		se.texts = append(se.texts, st.texts...)
		for _, a := range st.attsTouched {
			se.foldAttr(a, sh.epoch)
		}
	}
	for _, w := range f.rootBuf {
		sh.slot(w).roots++
	}
	sh.documents++
}

// foldAttr accumulates one document's staged attribute statistic into the
// shard stage, preserving first-seen value order so the corpus commit is
// deterministic even when the distinct-value cap truncates. epoch is the
// owning fastShard's reuse generation: a stage last touched by a previous
// tenant of a recycled arena is reset on first sight.
func (se *shardElem) foldAttr(a *attStage, epoch int64) {
	if se.atts == nil {
		se.atts = map[string]*attStage{}
	}
	d := se.atts[a.name]
	if d == nil {
		d = &attStage{name: a.name, epoch: epoch - 1}
		se.atts[a.name] = d
	}
	if d.epoch != epoch {
		d.epoch = epoch
		d.reset()
		se.attList = append(se.attList, d)
	}
	d.present += a.present
	d.overflow = d.overflow || a.overflow
	for _, vc := range a.vals {
		d.add(vc.v, vc.n)
	}
}

// The fold of a sealed fastShard into the corpus extraction lives with
// the pipeline committer (commitFastShard in pipeline.go): commit state
// is owned by the committing goroutine, keyed by the sealed name
// snapshot, so workers and committer never share mutable state.
