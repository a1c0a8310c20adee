package solver_test

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/solver"
)

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range solver.Names() {
		if seen[n] {
			t.Fatalf("engine %q registered twice", n)
		}
		seen[n] = true
	}
	if len(seen) == 0 {
		t.Fatal("no engines registered")
	}
}

// TestLadderOrder: the degradation ladder strictly descends in tier and
// bottoms out at the Andersen pre-analysis, the rung that cannot fail once
// the program compiles.
func TestLadderOrder(t *testing.T) {
	ladder := solver.Ladder()
	if len(ladder) == 0 {
		t.Fatal("empty ladder")
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].Tier() >= ladder[i-1].Tier() {
			t.Fatalf("ladder not strictly descending: %s (%s) after %s (%s)",
				ladder[i].Name(), ladder[i].Tier(), ladder[i-1].Name(), ladder[i-1].Tier())
		}
	}
	if last := ladder[len(ladder)-1].Name(); last != "andersen" {
		t.Fatalf("ladder ends at %q, want andersen", last)
	}
}

func TestLookupUnknown(t *testing.T) {
	if s := solver.Lookup("no-such-engine"); s != nil {
		t.Fatalf("Lookup(unknown) = %s, want nil", s.Name())
	}
	if solver.Known("no-such-engine") {
		t.Fatal("Known(unknown) = true")
	}
}

// TestResultNilOnEmptyState: an engine whose outputs are absent must
// return a nil interface, not a typed-nil result pointer wrapped in a
// non-nil PTSView — the facade's fallback tests the interface against nil.
func TestResultNilOnEmptyState(t *testing.T) {
	for _, n := range solver.Names() {
		if v := solver.Lookup(n).Result(pipeline.NewState()); v != nil {
			t.Errorf("%s: Result(empty state) = %T, want a nil PTSView", n, v)
		}
	}
}
