package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// tracer records spans around the benchmark's calls into each layer. A
// nil *tracer is the untraced state: every method is a no-op, so the
// timed rounds call the same code with tracing off.
//
// Spans live on lanes (one per goroutine that opens spans); a span's
// parent is the innermost open span of its lane, or an explicit parent
// for spans a worker goroutine opens under its caller's region. Self
// time is a span's duration minus the union of its children's
// intervals, computed when the span ends. The first maxKept spans are
// also kept as telemetry.Trace events, for the Chrome trace file.
type tracer struct {
	events *telemetry.Trace

	mu    sync.Mutex
	aggs  map[string]*spanAgg
	kept  int
	drops int
	next  int64
}

// maxKept caps the spans written to the trace file; aggregates cover
// every span regardless.
const maxKept = 200000

// spanAgg accumulates every span of one name.
type spanAgg struct {
	count   int64
	items   int64 // Σ n: operations covered (recoveries, iterations)
	dur     time.Duration
	self    time.Duration
	samples []float64 // per-span durations in seconds, for medians
}

// span is an open span handle.
type span struct {
	tr       *tracer
	lane     *lane
	id       int64
	parent   *span
	name     string
	start    time.Duration
	n        int64
	mu       sync.Mutex
	children [][2]time.Duration
}

// lane is one goroutine's stack of open spans.
type lane struct {
	tr    *tracer
	id    int
	stack []*span
}

func newTracer() *tracer {
	return &tracer{events: telemetry.New().Trace(), aggs: map[string]*spanAgg{}}
}

func (tr *tracer) lane(id int) *lane {
	if tr == nil {
		return nil
	}
	return &lane{tr: tr, id: id}
}

func (tr *tracer) now() time.Duration { return tr.events.Now() }

// begin opens a span on the lane, child of the lane's innermost open
// span.
func (l *lane) begin(name string) *span {
	if l == nil {
		return nil
	}
	var parent *span
	if len(l.stack) > 0 {
		parent = l.stack[len(l.stack)-1]
	}
	return l.beginUnder(parent, name)
}

// beginUnder opens a span on the lane under an explicit parent, which
// may belong to another lane (a worker's chunk under its region).
func (l *lane) beginUnder(parent *span, name string) *span {
	if l == nil {
		return nil
	}
	l.tr.mu.Lock()
	l.tr.next++
	id := l.tr.next
	l.tr.mu.Unlock()
	s := &span{tr: l.tr, lane: l, id: id, parent: parent, name: name, start: l.tr.now()}
	l.stack = append(l.stack, s)
	return s
}

// items sets the number of operations the span covers.
func (s *span) items(n int64) {
	if s != nil {
		s.n = n
	}
}

// rename sets the span's name before it ends (for outcomes known only
// after the call, such as a cache hit).
func (s *span) rename(name string) {
	if s != nil {
		s.name = name
	}
}

// end closes the span; it must be the lane's innermost open span.
func (s *span) end() {
	if s == nil {
		return
	}
	end := s.tr.now()
	l := s.lane
	if n := len(l.stack); n > 0 && l.stack[n-1] == s {
		l.stack = l.stack[:n-1]
	} else {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", s.name))
	}
	s.mu.Lock()
	covered := unionLen(s.children)
	s.mu.Unlock()
	dur := end - s.start
	var pid int64
	if s.parent != nil {
		pid = s.parent.id
		s.parent.mu.Lock()
		s.parent.children = append(s.parent.children, [2]time.Duration{s.start, end})
		s.parent.mu.Unlock()
	}
	tr := s.tr
	tr.mu.Lock()
	a := tr.aggs[s.name]
	if a == nil {
		a = &spanAgg{}
		tr.aggs[s.name] = a
	}
	a.count++
	a.items += s.n
	a.dur += dur
	a.self += dur - covered
	if len(a.samples) < maxKept {
		a.samples = append(a.samples, dur.Seconds())
	}
	keep := tr.kept < maxKept
	if keep {
		tr.kept++
	} else {
		tr.drops++
	}
	tr.mu.Unlock()
	if keep {
		tr.events.Add(telemetry.Event{Name: s.name, Cat: "perfbench", TID: l.id, Start: s.start, Dur: dur,
			Args: []telemetry.Arg{{Name: "id", Value: s.id}, {Name: "parent", Value: pid}, {Name: "n", Value: s.n}}})
	}
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// agg returns the aggregate of one span name (zero when none ran).
func (tr *tracer) agg(name string) spanAgg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if a := tr.aggs[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// writeChrome writes the kept spans as Chrome trace JSON: one thread
// row per lane, the span and parent ids and the item count in args.
func (tr *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.events.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if tr.drops > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d spans beyond the first %d not written\n", tr.drops, maxKept)
	}
	return f.Close()
}
