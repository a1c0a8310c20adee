package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// bench is one workload. A run calls setup several times (each round
// starts from nothing and ends ready for the first timed operation), then
// prepare once, then op for every planned operation.
type bench interface {
	// setup generates the inputs and runs the untimed warm-up operations.
	setup(ctx context.Context) error
	// prepare records what verification needs; it is neither set-up time
	// nor timed.
	prepare(ctx context.Context) error
	// ops is the number of timed operations in a run; label names the
	// input operation i works on.
	ops() int
	label(i int) string
	// op runs timed operation i and returns the check of its output, which
	// the caller runs outside the clock.
	op(ctx context.Context, i int) (verify func() error, err error)
	// tracePass runs a fixed prefix of the workload's operations layer by
	// layer under spans, verifying each, and adds their counters to c.
	tracePass(ctx context.Context, t *tracer, c *counts) error
	// owns reports whether the workload's operations exercise a layer
	// group (see groups).
	owns(group string) bool
	// measured is the process whose CPU time and peak RSS are reported.
	measured() proc
	// warmMedians is each input's median warm-up operation time (ms) in
	// the last set-up round.
	warmMedians() map[string]float64
	close()
}

// input is one generated suite program.
type input struct {
	prog  string
	scale int
	src   string
	warm  []float64 // warm-up op times (ms), last set-up round
}

func (in *input) label() string { return fmt.Sprintf("%s@%d", in.prog, in.scale) }

func (in *input) generate() error {
	src, err := workload.Generate(in.prog, in.scale)
	in.src, in.warm = src, nil
	return err
}

// timed runs f and appends its wall time in ms to in.warm.
func (in *input) timed(f func() error) error {
	t0 := time.Now()
	err := f()
	in.warm = append(in.warm, ms(time.Since(t0)))
	return err
}

func warmMedians[T interface{ inputOf() *input }](ins []T) map[string]float64 {
	out := map[string]float64{}
	for _, x := range ins {
		in := x.inputOf()
		out[in.label()] = median(in.warm)
	}
	return out
}

func (in *input) inputOf() *input { return in }

// interleave returns a seeded order in which input k appears per[k]
// times: every run does the same multiset of operations.
func interleave(r *rand.Rand, nInputs, per int) []int {
	order := make([]int, 0, nInputs*per)
	for k := 0; k < nInputs; k++ {
		for j := 0; j < per; j++ {
			order = append(order, k)
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// scheduleSeeds picks the interpreter schedules the load oracle runs.
func scheduleSeeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

func globalNames(prog *ir.Program) []string {
	var out []string
	for _, o := range prog.Objects {
		if o.Kind == ir.ObjGlobal {
			out = append(out, o.Name)
		}
	}
	return out
}

// ---- analyze-large and verdict: one cold analysis per operation ----

type coldInput struct {
	input
	obs  []observation
	gold golden
}

type coldBench struct {
	inputs []*coldInput
	order  []int
	// diagnose runs the checker suite after the analysis (verdict); nil
	// skips it (analyze-large). Tests substitute a wrapper.
	diagnose func(*fsam.Analysis) (*fsam.DiagnosticsResult, error)
	warmups  int
	// tracePer is the number of traced operations per input per pass.
	tracePer int
	seed     int64
	goldens  map[string]golden
}

func newColdBench(seed int64, goldens map[string]golden, perInput int, diagnose bool, ins ...input) *coldBench {
	b := &coldBench{warmups: 3, tracePer: 2, seed: seed, goldens: goldens}
	for _, in := range ins {
		b.inputs = append(b.inputs, &coldInput{input: in})
	}
	b.order = interleave(rand.New(rand.NewSource(seed)), len(ins), perInput)
	if diagnose {
		b.diagnose = func(a *fsam.Analysis) (*fsam.DiagnosticsResult, error) { return a.Diagnostics() }
	}
	return b
}

func (b *coldBench) run(ctx context.Context, in *coldInput) (*fsam.Analysis, *fsam.DiagnosticsResult, error) {
	a, err := fsam.AnalyzeSourceCtx(ctx, in.label(), in.src, fsam.Config{})
	if err != nil || b.diagnose == nil {
		return a, nil, err
	}
	d, err := b.diagnose(a)
	return a, d, err
}

func (b *coldBench) setup(ctx context.Context) error {
	for _, in := range b.inputs {
		if err := in.generate(); err != nil {
			return err
		}
		for w := 0; w < b.warmups; w++ {
			if err := in.timed(func() error { _, _, err := b.run(ctx, in); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *coldBench) prepare(ctx context.Context) error {
	for _, in := range b.inputs {
		prog, err := pipeline.Compile(in.label(), in.src)
		if err != nil {
			return err
		}
		// The suite programs are built for analysis, not execution: most
		// schedules stop at a null dereference within a hundred steps, so
		// many short schedules are needed to observe a few loads.
		in.obs = observe(prog, scheduleSeeds(b.seed, 32))
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d load targets observed by the interpreter\n", in.label(), len(in.obs))
		g, ok := b.goldens[in.label()]
		if !ok || (b.diagnose != nil && g.Diags == "") {
			return fmt.Errorf("%s: no golden digest in goldens.json", in.label())
		}
		in.gold = g
	}
	return nil
}

func (b *coldBench) ops() int           { return len(b.order) }
func (b *coldBench) label(i int) string { return b.inputs[b.order[i]].label() }
func (b *coldBench) measured() proc     { return proc{} }
func (b *coldBench) close()             {}
func (b *coldBench) owns(g string) bool {
	return g == groupCheckers && b.diagnose != nil
}
func (b *coldBench) warmMedians() map[string]float64 { return warmMedians(b.inputs) }

func (b *coldBench) op(ctx context.Context, i int) (func() error, error) {
	in := b.inputs[b.order[i]]
	a, d, err := b.run(ctx, in)
	if err != nil {
		return nil, err
	}
	return func() error {
		if a.Precision != fsam.PrecisionSparseFS || a.Stats.Degraded != "" {
			return fmt.Errorf("%s: landed at %s (%s)", in.label(), a.Precision, a.Stats.Degraded)
		}
		var ds []diag.Diagnostic
		if d != nil {
			ds = d.Diags
		}
		return b.check(in, facadeView(a), ds)
	}, nil
}

// check compares a result with the input's goldens and the interpreter's
// observed loads.
func (b *coldBench) check(in *coldInput, v ptsView, ds []diag.Diagnostic) error {
	if got := ptsDigest(v); got != in.gold.PTS {
		return fmt.Errorf("%s: points-to digest %s, golden %s", in.label(), got, in.gold.PTS)
	}
	if b.diagnose != nil {
		if got := diagDigest(ds); got != in.gold.Diags {
			return fmt.Errorf("%s: diagnostics digest %s, golden %s", in.label(), got, in.gold.Diags)
		}
	}
	if err := covered(v, in.obs); err != nil {
		return fmt.Errorf("%s: %w", in.label(), err)
	}
	return nil
}

func (b *coldBench) tracePass(ctx context.Context, t *tracer, c *counts) error {
	for _, in := range b.inputs {
		for j := 0; j < b.tracePer; j++ {
			root := t.begin(nil, "op")
			s, err := analyzeStaged(ctx, t, root, "", in.label(), in.src, c)
			var ds []diag.Diagnostic
			if err == nil && b.diagnose != nil {
				ds, err = runCheckers(t, root, s, c)
			}
			t.end(root)
			if err != nil {
				return err
			}
			if err := b.check(in, s.view(), ds); err != nil {
				return fmt.Errorf("layer-by-layer result differs from the facade's: %w", err)
			}
		}
	}
	return nil
}
