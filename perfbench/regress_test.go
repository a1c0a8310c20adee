package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/checkers"
)

// doubleRace wraps a verdict workload's checker call so the race checker
// runs twice per operation: a planted regression in one layer. Workloads
// that run no checkers are left alone.
func doubleRace(b *coldBench) {
	inner := b.diagnose
	if inner == nil {
		return
	}
	b.diagnose = func(a *fsam.Analysis) (*fsam.DiagnosticsResult, error) {
		f := checkerFacts(a.SourceName, a.Prog, a.Base, a.MHP, a.Locks, a.Result, a.Escape)
		if _, err := checkers.Run(f, "race"); err != nil {
			return nil, err
		}
		return inner(a)
	}
}

func loadBounds(t *testing.T) []bound {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd
}

// measureCold sets up and runs the first ops operations of a cold
// workload's plan and returns its end-to-end metrics.
func measureCold(t *testing.T, name string, plant bool, ops int) map[string][]float64 {
	t.Helper()
	goldens, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(name, 7, goldens, "")
	if err != nil {
		t.Fatal(err)
	}
	cb := b.(*coldBench)
	cb.order, cb.warmups = cb.order[:ops], 1
	if plant {
		doubleRace(cb)
	}
	ctx := context.Background()
	if err := cb.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cb.prepare(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := measure(ctx, cb, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 {
		t.Fatalf("%s: %d operations failed verification", name, st.failed)
	}
	out := map[string][]float64{}
	for k, m := range st.metrics() {
		out[k] = []float64{m.Value}
	}
	return out
}

// TestPlantedRaceRegression shows the gate can fail: doubling the race
// checker call is flagged on verdict, whose operations run the checkers,
// and leaves analyze-large, whose operations do not, inside its bounds.
func TestPlantedRaceRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the verdict and analyze-large workloads")
	}
	bounds := loadBounds(t)
	var timeBounds []bound // peak RSS needs a full run's operation count
	for _, b := range bounds {
		if b.Name == "latency_p50_ms" || b.Name == "ops_per_s" || b.Name == "cpu_ms_per_op" {
			timeBounds = append(timeBounds, b)
		}
	}
	if len(timeBounds) != 3 {
		t.Fatalf("BENCHMARK.json lacks the timing bounds: %+v", bounds)
	}
	for _, tc := range []struct {
		workload string
		flagged  bool
	}{{"verdict", true}, {"analyze-large", false}} {
		base := measureCold(t, tc.workload, false, 16)
		head := measureCold(t, tc.workload, true, 16)
		regs := regressions(timeBounds, base, head)
		t.Logf("%s: %v", tc.workload, regs)
		if tc.flagged && len(regs) != len(timeBounds) {
			t.Errorf("%s: planted race doubling flagged only %v", tc.workload, regs)
		}
		if !tc.flagged && len(regs) != 0 {
			t.Errorf("%s: planted race doubling flagged %v", tc.workload, regs)
		}
	}
}

// TestRegressionsDirection checks the comparison honours "better".
func TestRegressionsDirection(t *testing.T) {
	bs := []bound{{Name: "lat", Better: "lower", Bound: 0.1}, {Name: "tput", Better: "higher", Bound: 0.1}}
	base := map[string][]float64{"lat": {10, 10, 10}, "tput": {100, 100, 100}}
	if r := regressions(bs, base, map[string][]float64{"lat": {10.5}, "tput": {95}}); len(r) != 0 {
		t.Errorf("within bounds, got %v", r)
	}
	if r := regressions(bs, base, map[string][]float64{"lat": {12}, "tput": {85}}); len(r) != 2 {
		t.Errorf("both worse beyond bounds, got %v", r)
	}
	if r := regressions(bs, base, map[string][]float64{"lat": {5}, "tput": {200}}); len(r) != 0 {
		t.Errorf("improvements flagged: %v", r)
	}
}

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// regressions compares the medians of two sets of runs and names every
// metric whose head median is worse than the base median by more than
// its bound, as a share of the base median.
func regressions(bounds []bound, base, head map[string][]float64) []string {
	var out []string
	for _, b := range bounds {
		bv, hv := base[b.Name], head[b.Name]
		if len(bv) == 0 || len(hv) == 0 {
			continue
		}
		mb, mh := median(bv), median(hv)
		worse := (mh - mb) / mb
		if b.Better == "higher" {
			worse = (mb - mh) / mb
		}
		if worse > b.Bound {
			out = append(out, fmt.Sprintf("%s %.4g -> %.4g (%+.1f%%, bound %.0f%%)",
				b.Name, mb, mh, 100*worse, 100*b.Bound))
		}
	}
	return out
}
