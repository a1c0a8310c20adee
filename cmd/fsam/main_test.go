package main

import (
	"context"
	"os"
	"strings"
	"testing"

	fsam "repro"
)

// TestTimeLineNamesPhasesThatRan: the -stats time line follows the phases
// the selected engine actually ran, so tmod's escape and interference
// solves show up and fsam's sparse solve does.
func TestTimeLineNamesPhasesThatRan(t *testing.T) {
	const path = "../../testdata/abba.mc"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for engine, want := range map[string][]string{
		"tmod": {"compile=", "tmod=", "escape="},
		"fsam": {"compile=", "sparse="},
	} {
		a, err := fsam.AnalyzeSourceCtx(context.Background(), path, string(src), fsam.Config{Engine: engine})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		line := timeLine(a.Stats.Times)
		for _, w := range want {
			if !strings.Contains(line, " "+w) {
				t.Errorf("%s: time line %q lacks %q", engine, line, w)
			}
		}
		if engine == "tmod" && strings.Contains(line, "sparse=") {
			t.Errorf("tmod: time line %q names the sparse solve, which tmod does not run", line)
		}
	}
}
