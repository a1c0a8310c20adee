package main

import (
	"context"
	"fmt"

	fsam "repro"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/vfg"
)

// counts accumulates the per-layer counters of one traced pass. Each
// metric reads as the mean of the values added under its key, so a count
// is per operation and a ratio is averaged over the calls that made it.
type counts struct {
	sum map[string]float64
	n   map[string]int
}

func newCounts() *counts { return &counts{sum: map[string]float64{}, n: map[string]int{}} }

func (c *counts) add(key string, v float64) {
	c.sum[key] += v
	c.n[key]++
}

func (c *counts) has(key string) bool { return c.n[key] > 0 }

func (c *counts) mean(key string) float64 { return c.sum[key] / float64(c.n[key]) }

// staged is the fsam engine's result, built by calling each layer's
// public function in the engine's DAG order: compile → pre-analysis →
// thread model → interleavings, locks, escape → def-use graph → sparse
// solve. The facade runs the same DAG (overlapping the three middle
// phases); the digest check proves the two agree.
type staged struct {
	name string
	prog *ir.Program
	base *pipeline.Base
	il   *mhp.Result
	lk   *locks.Result
	esc  *escape.Result
	g    *vfg.Graph
	res  *core.Result
}

func (s *staged) view() ptsView {
	return ptsView{prog: s.prog, vars: s.res.PointsToVar, exit: func(o *ir.Object) *pts.Set {
		return s.res.ObjAtExit(s.prog.Main, o)
	}}
}

// analyzeStaged runs the default configuration layer by layer, one span
// per layer under parent. prefix keeps a probe's spans and counters apart
// from the workload's own.
func analyzeStaged(ctx context.Context, t *tracer, parent *span, prefix, name, src string, c *counts) (*staged, error) {
	cfg := fsam.Config{}.Normalize()
	s := &staged{name: name}
	steps := []struct {
		layer string
		run   func() error
	}{
		{"compile", func() (err error) { s.prog, err = pipeline.Compile(name, src); return }},
		{"andersen", func() (err error) { s.base, err = pipeline.BuildPre(ctx, s.prog, cfg.CtxDepth); return }},
		{"threads", func() error { s.base.BuildThreadModel(); return nil }},
		{"mhp", func() (err error) { s.il, err = mhp.AnalyzeCtx(ctx, s.base.Model); return }},
		{"locks", func() error { s.lk = locks.Analyze(s.base.Model); return nil }},
		{"escape", func() error { s.esc = escape.Analyze(s.base.Model); return nil }},
		{"vfg", func() (err error) {
			s.g, err = vfg.BuildCtx(ctx, s.base.Model, vfg.Options{Interleave: s.il, Locks: s.lk, Escape: s.esc})
			return
		}},
		{"core", func() (err error) { s.res, err = core.SolveCtx(ctx, s.base.Model, s.g); return }},
	}
	for _, st := range steps {
		if err := t.do(parent, prefix+st.layer, st.run); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", name, st.layer, err)
		}
	}
	rs := s.res.InternStats()
	rs.AddFrom(s.base.Pre.InternStats())
	c.add(prefix+"andersen.pops", float64(s.base.Pre.Pops))
	c.add(prefix+"escape.pruned", float64(s.g.FilteredByEscape))
	c.add(prefix+"vfg.edges", float64(s.g.ObliviousEdges+s.g.ThreadEdges))
	c.add(prefix+"core.pops", float64(s.res.Iterations))
	c.add(prefix+"pts.unique_sets", float64(rs.Unique))
	c.add(prefix+"pts.dedup_ratio", rs.DedupRatio())
	return s, nil
}

// checkerFacts assembles the checker inputs the way the facade does for a
// full-precision default-config analysis.
func checkerFacts(file string, prog *ir.Program, base *pipeline.Base, il *mhp.Result,
	lk *locks.Result, res *core.Result, esc *escape.Result) *checkers.Facts {
	return &checkers.Facts{
		File: file, Prog: prog, Model: base.Model, MHP: il, Locks: lk,
		Points: res, Pre: base.Pre, Reachable: base.CG.Reachable,
		FullPrecision: true, PrecisionNote: fsam.PrecisionSparseFS.String(),
		MemModel: fsam.Config{}.Normalize().MemModel, Escape: esc,
	}
}

// restCheckers is every registered checker but race.
func restCheckers() []string {
	var ids []string
	for _, id := range checkers.IDs() {
		if id != "race" {
			ids = append(ids, id)
		}
	}
	return ids
}

// runCheckers runs the race checker and then the rest of the suite, each
// under its own span, and returns all findings.
func runCheckers(t *tracer, parent *span, s *staged, c *counts) ([]diag.Diagnostic, error) {
	f := checkerFacts(s.name, s.prog, s.base, s.il, s.lk, s.res, s.esc)
	var all []diag.Diagnostic
	for _, part := range []struct {
		span string
		ids  []string
	}{{"checkers.race", []string{"race"}}, {"checkers.rest", restCheckers()}} {
		err := t.do(parent, part.span, func() error {
			r, err := checkers.Run(f, part.ids...)
			if err == nil {
				all = append(all, r.Diags...)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", s.name, part.span, err)
		}
	}
	c.add("checkers.diags", float64(len(all)))
	return all, nil
}

// Layer groups beyond the analysis layers, which every workload runs: a
// workload owns the groups its operations exercise, and a traced run
// fills every other group from a small fixed probe, so each traced run
// reports every per-layer metric.
const (
	groupCheckers = "checkers"
	groupDelta    = "delta"
	groupServer   = "server"
)

var groups = []string{groupCheckers, groupDelta, groupServer}

// spanMetrics lists the per-layer metrics read from span durations (.ms)
// and allocations (.alloc_mb), by span name.
var spanMetrics = []struct {
	span  string
	alloc bool
}{
	{"compile", true}, {"andersen", true}, {"threads", false}, {"mhp", false},
	{"locks", false}, {"escape", false}, {"vfg", true}, {"core", false},
	{"checkers.race", true}, {"checkers.rest", false}, {"delta", false},
	{"server.analyze", false}, {"server.diagnostics", false}, {"server.pointsto", false},
}

// countMetrics lists the per-layer metrics read from counters, with
// their units. The deterministic ones must repeat exactly between passes.
var countMetrics = []struct {
	name, unit    string
	deterministic bool
}{
	{"andersen.pops", "count", true},
	{"escape.pruned", "count", false},
	{"vfg.edges", "count", true},
	{"core.pops", "count", true},
	{"pts.unique_sets", "count", true},
	{"pts.dedup_ratio", "ratio", false},
	{"checkers.diags", "count", true},
	{"delta.iso_frac", "fraction", false},
	{"delta.impacted_funcs", "count", true},
	{"facts.hits", "count", false},
	{"facts.misses", "count", false},
	{"server.resp_kb", "KiB", false},
	{"server.cache_hit_frac", "fraction", false},
}

// diagnoseStaged analyzes in layer by layer and runs the checkers under a
// root span named rootName, then checks the result and its findings
// against a facade analysis of the same source.
func diagnoseStaged(ctx context.Context, t *tracer, rootName, prefix string, in *input, c *counts) error {
	root := t.begin(nil, rootName)
	s, err := analyzeStaged(ctx, t, root, prefix, in.label(), in.src, c)
	var ds []diag.Diagnostic
	if err == nil {
		ds, err = runCheckers(t, root, s, c)
	}
	t.end(root)
	if err != nil {
		return err
	}
	return sameAsFacade(ctx, in.label(), in.src, s, ds)
}

// sameAsFacade checks a layer-by-layer result and its findings against a
// facade analysis of the same source.
func sameAsFacade(ctx context.Context, name, src string, s *staged, ds []diag.Diagnostic) error {
	a, err := fsam.AnalyzeSourceCtx(ctx, name, src, fsam.Config{})
	if err != nil {
		return err
	}
	if got, want := ptsDigest(s.view()), ptsDigest(facadeView(a)); got != want {
		return fmt.Errorf("%s: layer-by-layer points-to digest %s, facade %s", name, got, want)
	}
	d, err := a.Diagnostics()
	if err != nil {
		return err
	}
	if got, want := diagDigest(ds), diagDigest(d.Diags); got != want {
		return fmt.Errorf("%s: layer-by-layer diagnostics digest %s, facade %s", name, got, want)
	}
	return nil
}
