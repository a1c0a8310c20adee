package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the id of the enclosing span (0 for an operation's root).
// Alloc and GC are the bytes allocated and GC cycles completed in this
// process while the span was open (children included).
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Alloc  uint64
	GC     uint64
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory; write emits them once, at exit.
// A nil *tracer records nothing, so untraced runs share the traced code
// paths at the cost of a nil check.
type tracer struct {
	epoch   time.Time
	spans   []*span
	ops     int
	samples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

func (t *tracer) memCounters() (alloc, gc uint64) {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Uint64()
}

// begin opens a span named name under parent; a nil parent makes it the
// root of a new operation.
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name}
	if parent != nil {
		s.Parent, s.Op = parent.ID, parent.Op
	} else {
		t.ops++
		s.Op = t.ops
	}
	t.spans = append(t.spans, s)
	s.Alloc, s.GC = t.memCounters()
	s.Start = time.Since(t.epoch)
	return s
}

// end closes s.
func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.End = time.Since(t.epoch)
	a, g := t.memCounters()
	s.Alloc, s.GC = a-s.Alloc, g-s.GC
}

// do runs f under a span named name.
func (t *tracer) do(parent *span, name string, f func() error) error {
	s := t.begin(parent, name)
	err := f()
	t.end(s)
	return err
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event; Perfetto and
// chrome://tracing open a JSON object holding a list of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) write(w io.Writer) error {
	evs := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, traceEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op,
				"alloc_bytes": s.Alloc, "gc_cycles": s.GC},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// check reports the first way the span tree is malformed: an unknown or
// later parent, a child outside its parent's interval, an operation id
// that differs from the parent's, or an unclosed span.
func (t *tracer) check() error {
	byID := map[int]*span{}
	for i, s := range t.spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %q has id %d at position %d", s.Name, s.ID, i+1)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d %q lies outside its parent %d %q", s.ID, s.Name, p.ID, p.Name)
			}
			if s.Op != p.Op {
				return fmt.Errorf("span %d %q has op %d, its parent op %d", s.ID, s.Name, s.Op, p.Op)
			}
		}
		byID[s.ID] = s
	}
	return nil
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes sums, per span name, the total time and the self time: a
// span's duration minus the part of it its children cover. Children of
// one parent never overlap (every layer call is sequential), so the
// covered part is the sum of their durations.
func (t *tracer) selfTimes() []selfRow {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += s.dur() - child[s.ID]
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-24s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %12.2f %12.2f\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
