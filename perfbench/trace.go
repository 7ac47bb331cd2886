package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers: nothing inside the program is instrumented, so a span's
// duration is what the wrapped public call took. Spans live in memory and
// are written out once, at the end of the run. A nil *tracer records
// nothing, which is how the untraced code path runs the same code.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextOp int
}

// span is one wrapped call. Spans of one operation share Op; Parent is the
// index of the enclosing span, or -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates the identifier of a new operation.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span starting now and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	return t.beginAt(name, op, parent, time.Now())
}

// beginAt opens a span whose start is given, for operations timed from a
// scheduled instant rather than from the call.
func (t *tracer) beginAt(name string, op, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(at.Sub(t.t0)), End: -1})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call runs f inside a span and returns f's duration, traced or not.
func (t *tracer) call(name string, op, parent int, f func()) time.Duration {
	id := t.begin(name, op, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) finish() {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = (s.End - s.Start) - t.covered(s, children[i])
	}
}

// covered returns how much of s's interval the given child spans cover,
// counting overlapping children once.
func (t *tracer) covered(s *span, kids []int) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := t.spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			total += v.b - reach
			reach = v.b
		}
	}
	return total
}

// unattributedPct is the share of the named operation roots' time that no
// child span covers, in percent. Call after finish.
func (t *tracer) unattributedPct(roots ...string) float64 {
	want := map[string]bool{}
	for _, r := range roots {
		want[r] = true
	}
	var self, total int64
	for _, s := range t.spans {
		if s.Parent < 0 && want[s.Name] {
			self += s.Self
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(self) / float64(total)
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
