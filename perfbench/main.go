// Command perfbench is the repository benchmark. Each run measures one
// workload in its own process with one closed-loop client, checks every
// output, and prints one JSON object as the last line of standard output:
// the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// separate traced run. run.sh builds it and fsamd from the checkout:
//
//	bash perfbench/run.sh --workload verdict --seed 1 --seconds 30 --trace 0
//
// README.md explains the workloads, the metrics and the trace file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	fsam "repro"
)

// Set-up rounds per timed run; setup_s is their median.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"analyze-large", "verdict", "edit-loop", "serve-cached"}

// newBench builds the named workload's plan from seed. The seed only
// orders operations and picks edit sites, queried globals and
// interpreter schedules; the inputs and the operation counts are fixed.
func newBench(name string, seed int64, goldens map[string]golden, fsamdBin string) (bench, error) {
	switch name {
	case "analyze-large":
		return newColdBench(seed, goldens, 50, false,
			input{prog: "x264", scale: 3}, input{prog: "raytrace", scale: 3}), nil
	case "verdict":
		return newColdBench(seed, goldens, 75, true,
			input{prog: "httpd_server", scale: 2}, input{prog: "bodytrack", scale: 4}), nil
	case "edit-loop":
		return newEditBench(seed, 3, 1, 2, 7,
			input{prog: "httpd_server", scale: 16}, input{prog: "mt_daapd", scale: 13}), nil
	case "serve-cached":
		return newServeBench(fsamdBin, seed, 1500, 4,
			input{prog: "word_count", scale: 4}, input{prog: "kmeans", scale: 4},
			input{prog: "automount", scale: 2}, input{prog: "radiosity", scale: 2}), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = fs.Int64("seed", 1, "seed for operation order, edit sites, queried globals and schedules")
		seconds = fs.Int("seconds", 30, "expected length of the timed loop; the loop gives up after 4x this")
		trace   = fs.Int("trace", 0, "1: traced run printing per-layer metrics instead of end-to-end ones")
		fsamd   = fs.String("fsamd", ".bench_build/fsamd", "fsamd binary (serve-cached and the server probe)")
		out     = fs.String("out", ".bench_build", "directory for the trace file")
		update  = fs.String("update-goldens", "", "recompute the golden digests into this file and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	ctx := context.Background()
	if *update != "" {
		if err := writeGoldens(ctx, *update); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	goldens, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := newBench(*name, *seed, goldens, *fsamd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(ctx, b, *fsamd, filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)))
	} else {
		res, err = timedRun(ctx, b, start, time.Duration(*seconds)*time.Second)
	}
	b.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printWarmMedians(b bench) {
	meds := b.warmMedians()
	labels := make([]string, 0, len(meds))
	for l := range meds {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(os.Stderr, "perfbench: setup: %s median warm-up op %.2f ms\n", l, meds[l])
	}
}

// timedRun sets up setupRounds times, then runs every planned operation
// once. Only the operation itself is on the latency clock and in the CPU
// account; its verification runs after the clock stops.
func timedRun(ctx context.Context, b bench, start time.Time, seconds time.Duration) (*result, error) {
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		if err := b.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	printWarmMedians(b)
	if err := b.prepare(ctx); err != nil {
		return nil, fmt.Errorf("prepare verification: %w", err)
	}
	// Start every run's loop from the same heap: set-up and verification
	// garbage collected and returned.
	debug.FreeOSMemory()
	limit := 4 * seconds
	if rest := 170*time.Second - time.Since(start); rest < limit {
		limit = rest
	}
	fmt.Fprintf(os.Stderr, "perfbench: %.2f s from process start to the first timed op\n", time.Since(start).Seconds())

	st, err := measure(ctx, b, limit)
	if err != nil {
		return nil, err
	}
	if len(st.lat) < 100 {
		return nil, fmt.Errorf("%d timed ops; latency_p90_ms needs at least 100", len(st.lat))
	}
	fmt.Fprintf(os.Stderr, "perfbench: latency_p90_ms from %d samples (%d beyond it); loop %.2f s, verification %.2f s\n",
		len(st.lat), len(st.lat)-int(math.Ceil(0.9*float64(len(st.lat)))), st.wall.Seconds(), st.verifying.Seconds())
	m := st.metrics()
	m["latency_p90_ms"] = metric{rank(st.lat, 0.9), "ms"}
	m["setup_s"] = metric{median(setups), "s"}
	return &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// loopStats is what one pass over a workload's plan measured.
type loopStats struct {
	lat, peaks                   []float64 // per op: wall ms, peak RSS MB
	cpu                          time.Duration
	wall, verifying              time.Duration
	attempted, completed, failed int
}

// measure runs every planned operation once, giving up after limit.
func measure(ctx context.Context, b bench, limit time.Duration) (*loopStats, error) {
	p := b.measured()
	n := b.ops()
	st := &loopStats{attempted: n}
	loop := time.Now()
	for i := 0; i < n; i++ {
		if time.Since(loop) > limit {
			fmt.Fprintf(os.Stderr, "perfbench: gave up after %d of %d ops (%s)\n", i, n, limit)
			st.failed += n - i
			break
		}
		p.resetPeak()
		c0, err := p.cpu()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		verify, err := b.op(ctx, i)
		d := time.Since(t0)
		c1, cerr := p.cpu()
		if cerr != nil {
			return nil, cerr
		}
		peak, perr := p.peakRSSMB()
		if perr != nil {
			return nil, perr
		}
		st.cpu += c1 - c0
		st.lat = append(st.lat, ms(d))
		st.peaks = append(st.peaks, peak)
		v0 := time.Now()
		if err == nil {
			st.completed++
			err = verify()
		}
		st.verifying += time.Since(v0)
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", i, b.label(i), err)
		}
	}
	st.wall = time.Since(loop) - st.verifying
	byLabel := map[string][]float64{}
	for i, l := range st.lat {
		byLabel[b.label(i)] = append(byLabel[b.label(i)], l)
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(os.Stderr, "perfbench: timed: %s %d ops, median %.2f ms\n", l, len(byLabel[l]), median(byLabel[l]))
	}
	return st, nil
}

// metrics are the end-to-end metrics any number of operations supports.
func (st *loopStats) metrics() map[string]metric {
	return map[string]metric{
		"ops_per_s":      {float64(st.completed) / st.wall.Seconds(), "1/s"},
		"latency_p50_ms": {rank(st.lat, 0.5), "ms"},
		"cpu_ms_per_op":  {ms(st.cpu) / float64(len(st.lat)), "ms"},
		"peak_rss_mb":    {median(st.peaks), "MB"},
		"success_frac":   {float64(st.attempted-st.failed) / float64(st.attempted), "fraction"},
	}
}

// tracedRun sets up once, times a tenth of the plan untraced as the
// reference for trace.overhead_ms, then runs two traced passes (the
// workload's own traced operations plus a probe for every layer group
// the workload does not exercise). The deterministic counters must repeat
// exactly between the passes.
func tracedRun(ctx context.Context, b bench, fsamdBin, tracePath string) (*result, error) {
	if err := b.setup(ctx); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	printWarmMedians(b)
	if err := b.prepare(ctx); err != nil {
		return nil, fmt.Errorf("prepare verification: %w", err)
	}
	var ref []float64
	failed := 0
	for i := 0; i < b.ops()/10; i++ {
		t0 := time.Now()
		verify, err := b.op(ctx, i)
		ref = append(ref, ms(time.Since(t0)))
		if err == nil {
			err = verify()
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", i, b.label(i), err)
		}
	}

	t := newTracer()
	var passes [2]*counts
	for p := range passes {
		c := newCounts()
		if err := b.tracePass(ctx, t, c); err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", p+1, err)
		}
		for _, g := range groups {
			if !b.owns(g) {
				if err := probe(ctx, g, t, c, fsamdBin); err != nil {
					return nil, fmt.Errorf("traced pass %d: %s probe: %w", p+1, g, err)
				}
			}
		}
		passes[p] = c
	}
	var drift []string
	for _, m := range countMetrics {
		if m.deterministic && passes[0].sum[m.name] != passes[1].sum[m.name] {
			drift = append(drift, fmt.Sprintf("%s %v vs %v", m.name, passes[0].sum[m.name], passes[1].sum[m.name]))
		}
	}
	if len(drift) > 0 {
		return nil, fmt.Errorf("counters differ between two passes of one seed: %s", strings.Join(drift, "; "))
	}
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := t.writeFile(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	printSelfTimes(os.Stderr, t.selfTimes())
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", tracePath)

	m, err := layerMetrics(t, passes[0], ref)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(ref) + len(t.named("op")),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// layerMetrics reads every per-layer metric from the spans and the first
// pass's counters.
func layerMetrics(t *tracer, c *counts, ref []float64) (map[string]metric, error) {
	m := map[string]metric{}
	for _, sm := range spanMetrics {
		ss := t.named(sm.span)
		if len(ss) == 0 {
			return nil, fmt.Errorf("no %q spans recorded", sm.span)
		}
		var durs, allocs []float64
		for _, s := range ss {
			durs = append(durs, ms(s.dur()))
			allocs = append(allocs, float64(s.Alloc)/(1<<20))
		}
		m[sm.span+".ms"] = metric{median(durs), "ms"}
		if sm.alloc {
			m[sm.span+".alloc_mb"] = metric{median(allocs), "MB"}
		}
	}
	for _, cm := range countMetrics {
		if !c.has(cm.name) {
			return nil, fmt.Errorf("no %q counter recorded", cm.name)
		}
		m[cm.name] = metric{c.mean(cm.name), cm.unit}
	}
	ops := t.named("op")
	if len(ops) == 0 || len(ref) == 0 {
		return nil, errors.New("no traced or reference operations")
	}
	var durs []float64
	var alloc, gc float64
	for _, s := range ops {
		durs = append(durs, ms(s.dur()))
		alloc += float64(s.Alloc) / (1 << 20)
		gc += float64(s.GC)
	}
	m["alloc_mb_per_op"] = metric{alloc / float64(len(ops)), "MB"}
	m["gc.cycles_per_op"] = metric{gc / float64(len(ops)), "count"}
	m["trace.overhead_ms"] = metric{median(durs) - median(ref), "ms"}
	return m, nil
}

// writeGoldens recomputes the digests of every analyze-large and verdict
// input with the facade and writes them to path.
func writeGoldens(ctx context.Context, path string) error {
	out := map[string]golden{}
	for _, name := range []string{"analyze-large", "verdict"} {
		b, _ := newBench(name, 1, nil, "")
		cb := b.(*coldBench)
		for _, in := range cb.inputs {
			if err := in.generate(); err != nil {
				return err
			}
			a, d, err := cb.run(ctx, in)
			if err != nil {
				return err
			}
			if a.Precision != fsam.PrecisionSparseFS || a.Stats.Degraded != "" {
				return fmt.Errorf("%s: landed at %s (%s)", in.label(), a.Precision, a.Stats.Degraded)
			}
			g := golden{PTS: ptsDigest(facadeView(a))}
			if d != nil {
				g.Diags = diagDigest(d.Diags)
			}
			out[in.label()] = g
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
