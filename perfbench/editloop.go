package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	fsam "repro"
	"repro/internal/pipeline"
)

// ---- edit-loop: one single-function edit per operation, re-analyzed
// incrementally against the previous result, then one points-to query ----

type editInput struct {
	input
	sites   []site
	globals []string
	cur     *fsam.Analysis // the chain head
	// want is the from-scratch points-to digest of the unedited source
	// (wantBase) and of each site's edited source.
	wantBase string
	want     []string
	tiers    map[string]int // "kind→tier" counts, for the report
}

// editOp applies site (apply) or reverts it, so each op is a
// single-function edit of the previous result and the chain returns to
// the unedited program after every pair: a run sees only 1+len(sites)
// distinct sources, each verified against one from-scratch analysis.
type editOp struct {
	in, site int
	apply    bool
	global   int // index into the input's globals, reduced modulo their count
}

type editBench struct {
	inputs           []*editInput
	plan             []editOp
	nConst, nComment int
	seed             int64
	traceOps         int
}

// newEditBench plans cycles rounds per input; a round edits every
// constant site reps times and every comment site once, each edit
// followed by its revert, in a seeded order.
func newEditBench(seed int64, nConst, nComment, reps, cycles int, ins ...input) *editBench {
	b := &editBench{nConst: nConst, nComment: nComment, seed: seed, traceOps: 16}
	var round []int
	for s := 0; s < nConst+nComment; s++ {
		n := 1
		if s < nConst {
			n = reps
		}
		for k := 0; k < n; k++ {
			round = append(round, s)
		}
	}
	r := rand.New(rand.NewSource(seed))
	streams := make([][]editOp, len(ins))
	for k, in := range ins {
		b.inputs = append(b.inputs, &editInput{input: in})
		for c := 0; c < cycles; c++ {
			for _, j := range r.Perm(len(round)) {
				for _, apply := range []bool{true, false} {
					streams[k] = append(streams[k], editOp{in: k, site: round[j], apply: apply, global: r.Intn(1 << 20)})
				}
			}
		}
	}
	for _, k := range interleave(r, len(ins), len(streams[0])) {
		b.plan = append(b.plan, streams[k][0])
		streams[k] = streams[k][1:]
	}
	return b
}

func (b *editBench) setup(ctx context.Context) error {
	for k, in := range b.inputs {
		if err := in.generate(); err != nil {
			return err
		}
		sites, err := editSites(in.src, b.nConst, b.nComment, b.seed+int64(k))
		if err != nil {
			return fmt.Errorf("%s: %w", in.label(), err)
		}
		in.sites, in.tiers = sites, map[string]int{}
		a, err := fsam.AnalyzeSourceCtx(ctx, in.label(), in.src, fsam.Config{})
		if err != nil {
			return err
		}
		in.cur, in.globals = a, globalNames(a.Prog)
		// Warm up with one constant pair and one comment pair.
		for _, s := range []int{0, b.nConst} {
			for _, apply := range []bool{true, false} {
				e := editOp{in: k, site: s, apply: apply}
				if err := in.timed(func() error { _, err := b.edit(ctx, nil, nil, "", e, nil); return err }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (b *editBench) prepare(ctx context.Context) error {
	for _, in := range b.inputs {
		want, err := scratchDigest(ctx, in.label(), in.src)
		if err != nil {
			return err
		}
		in.wantBase, in.want = want, in.want[:0]
		for _, s := range in.sites {
			if want, err = scratchDigest(ctx, in.label(), s.src); err != nil {
				return err
			}
			in.want = append(in.want, want)
		}
	}
	return nil
}

// scratchDigest is the points-to digest of a from-scratch analysis.
func scratchDigest(ctx context.Context, name, src string) (string, error) {
	a, err := fsam.AnalyzeSourceCtx(ctx, name, src, fsam.Config{})
	if err != nil {
		return "", err
	}
	if a.Precision != fsam.PrecisionSparseFS || a.Stats.Degraded != "" {
		return "", fmt.Errorf("%s: landed at %s (%s)", name, a.Precision, a.Stats.Degraded)
	}
	return ptsDigest(facadeView(a)), nil
}

// edit runs one planned edit against the input's chain head. A traced
// edit also compiles the edited source under compileSpan, since the
// facade's own compile is not separately observable.
func (b *editBench) edit(ctx context.Context, t *tracer, root *span, compileSpan string, e editOp, c *counts) (*fsam.Analysis, error) {
	in := b.inputs[e.in]
	src := in.src
	if e.apply {
		src = in.sites[e.site].src
	}
	if t != nil {
		if err := t.do(root, compileSpan, func() error { _, err := pipeline.Compile(in.label(), src); return err }); err != nil {
			return nil, err
		}
	}
	var a *fsam.Analysis
	var rep *fsam.DeltaReport
	err := t.do(root, "delta", func() (err error) {
		a, rep, err = fsam.AnalyzeDeltaCtx(ctx, in.cur, in.label(), src)
		return
	})
	if err != nil {
		return nil, err
	}
	in.cur = a
	in.tiers[in.sites[e.site].kind+"→"+rep.Tier]++
	if c != nil {
		avoided := 0.0
		if rep.Tier != fsam.DeltaSemantic {
			avoided = 1
		}
		c.add("delta.iso_frac", avoided)
		c.add("delta.impacted_funcs", float64(len(rep.ImpactedFuncs)))
		c.add("facts.hits", float64(rep.Facts.Hits))
		c.add("facts.misses", float64(rep.Facts.Misses))
	}
	err = t.do(root, "query", func() error {
		_, err := a.PointsToGlobal(in.globals[e.global%len(in.globals)])
		return err
	})
	return a, err
}

func (b *editBench) verify(e editOp, a *fsam.Analysis) error {
	in := b.inputs[e.in]
	want := in.wantBase
	if e.apply {
		want = in.want[e.site]
	}
	if got := ptsDigest(facadeView(a)); got != want {
		return fmt.Errorf("%s: incremental digest %s, from-scratch %s", in.label(), got, want)
	}
	return nil
}

func (b *editBench) ops() int                        { return len(b.plan) }
func (b *editBench) measured() proc                  { return proc{} }
func (b *editBench) owns(g string) bool              { return g == groupDelta }
func (b *editBench) warmMedians() map[string]float64 { return warmMedians(b.inputs) }

// label names the input and the edit kind, so the per-label medians show
// each latency mode.
func (b *editBench) label(i int) string {
	e := b.plan[i]
	in := b.inputs[e.in]
	return in.label() + " " + in.sites[e.site].kind
}

func (b *editBench) close() {
	for _, in := range b.inputs {
		var ts []string
		for k, n := range in.tiers {
			ts = append(ts, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(ts)
		fmt.Fprintf(os.Stderr, "perfbench: %s edit tiers: %s\n", in.label(), strings.Join(ts, " "))
	}
}

func (b *editBench) op(ctx context.Context, i int) (func() error, error) {
	e := b.plan[i]
	a, err := b.edit(ctx, nil, nil, "", e, nil)
	if err != nil {
		return nil, err
	}
	return func() error { return b.verify(e, a) }, nil
}

// tracePass opens each input layer by layer (the analysis layers, on this
// workload's own programs), then replays the plan's first traceOps edits
// from fresh facade analyses of the unedited programs.
func (b *editBench) tracePass(ctx context.Context, t *tracer, c *counts) error {
	for _, in := range b.inputs {
		root := t.begin(nil, "open")
		s, err := analyzeStaged(ctx, t, root, "", in.label(), in.src, c)
		t.end(root)
		if err != nil {
			return err
		}
		if got := ptsDigest(s.view()); got != in.wantBase {
			return fmt.Errorf("%s: layer-by-layer digest %s, facade %s", in.label(), got, in.wantBase)
		}
		if in.cur, err = fsam.AnalyzeSourceCtx(ctx, in.label(), in.src, fsam.Config{}); err != nil {
			return err
		}
	}
	for _, e := range b.plan[:b.traceOps] {
		root := t.begin(nil, "op")
		a, err := b.edit(ctx, t, root, "compile", e, c)
		t.end(root)
		if err != nil {
			return err
		}
		if err := b.verify(e, a); err != nil {
			return err
		}
	}
	return nil
}
