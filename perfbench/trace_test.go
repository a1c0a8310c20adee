package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSpanTreeWellFormed traces a real layer-by-layer analysis and checks
// the tree: unique ids, parents that exist and enclose their children,
// one operation id per tree, and a Chrome trace that round-trips.
func TestSpanTreeWellFormed(t *testing.T) {
	in := input{prog: "word_count", scale: 1}
	if err := in.generate(); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	c := newCounts()
	for op := 0; op < 2; op++ {
		root := tr.begin(nil, "op")
		s, err := analyzeStaged(context.Background(), tr, root, "", in.label(), in.src, c)
		if err == nil {
			_, err = runCheckers(tr, root, s, c)
		}
		tr.end(root)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.named("op")); got != 2 {
		t.Fatalf("%d op spans, want 2", got)
	}
	for _, s := range tr.spans {
		if s.Parent == 0 && s.Name != "op" {
			t.Errorf("span %q has no parent", s.Name)
		}
	}

	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent, Op int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(tr.spans) {
		t.Fatalf("%d events for %d spans", len(doc.TraceEvents), len(tr.spans))
	}
	ops := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Args.ID != i+1 || ev.Args.Op == 0 || ev.Dur < 0 {
			t.Errorf("bad event %+v", ev)
		}
		ops[ev.Args.Op] = true
	}
	if len(ops) != 2 {
		t.Errorf("events carry %d operation ids, want 2", len(ops))
	}
}

// TestSpanCheckRejects shows check catches each kind of malformed tree.
func TestSpanCheckRejects(t *testing.T) {
	ms := time.Millisecond
	cases := map[string][]*span{
		"unknown parent": {{ID: 1, Op: 1, Name: "op", End: ms}, {ID: 2, Parent: 7, Op: 1, Name: "x", End: ms}},
		"outside parent": {{ID: 1, Op: 1, Name: "op", End: ms}, {ID: 2, Parent: 1, Op: 1, Name: "x", End: 2 * ms}},
		"other op":       {{ID: 1, Op: 1, Name: "op", End: ms}, {ID: 2, Parent: 1, Op: 2, Name: "x", End: ms}},
		"unclosed":       {{ID: 1, Op: 1, Name: "op", Start: ms}},
	}
	for name, spans := range cases {
		tr := &tracer{spans: spans}
		if err := tr.check(); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestSelfTimes checks that self time is duration minus child coverage.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []*span{
		{ID: 1, Op: 1, Name: "op", End: 10 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 5 * ms, End: 9 * ms},
		{ID: 4, Parent: 3, Op: 1, Name: "a", Start: 6 * ms, End: 7 * ms},
	}}
	got := map[string]selfRow{}
	for _, r := range tr.selfTimes() {
		got[r.Name] = r
	}
	want := map[string]selfRow{
		"op": {Name: "op", Count: 1, Total: 10 * ms, Self: 3 * ms},
		"a":  {Name: "a", Count: 2, Total: 4 * ms, Self: 4 * ms},
		"b":  {Name: "b", Count: 1, Total: 4 * ms, Self: 3 * ms},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	var buf strings.Builder
	printSelfTimes(&buf, tr.selfTimes())
	if !strings.Contains(buf.String(), "self_ms") {
		t.Errorf("table lacks its header:\n%s", buf.String())
	}
}
