package main

import (
	"context"
	"testing"

	fsam "repro"
)

// TestEditSites checks the generator's contract on a suite program:
// constant bumps land in the iso tier and comment edits in the noop tier,
// each incremental result equals a from-scratch analysis, the seed moves
// the line but not the function, and the bumps share one function.
func TestEditSites(t *testing.T) {
	in := input{prog: "httpd_server", scale: 2}
	if err := in.generate(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := fsam.AnalyzeSourceCtx(ctx, in.label(), in.src, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := editSites(in.src, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := editSites(in.src, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantTier := map[string]string{editConst: fsam.DeltaIso, editComment: fsam.DeltaNoop}
	if sites[0].fn != sites[1].fn || sites[2].fn == sites[0].fn {
		t.Errorf("bumps in %s and %s, comment in %s", sites[0].fn, sites[1].fn, sites[2].fn)
	}
	for i, s := range sites {
		if other[i].fn != s.fn || other[i].kind != s.kind {
			t.Errorf("site %d: seed changed the function: %s/%s vs %s/%s", i, s.fn, s.kind, other[i].fn, other[i].kind)
		}
		a, rep, err := fsam.AnalyzeDeltaCtx(ctx, base, in.label(), s.src)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tier != wantTier[s.kind] {
			t.Errorf("%s edit in %s landed in tier %s (%s)", s.kind, s.fn, rep.Tier, rep.IsoNote)
		}
		want, err := scratchDigest(ctx, in.label(), s.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := ptsDigest(facadeView(a)); got != want {
			t.Errorf("%s edit in %s: incremental digest %s, from-scratch %s", s.kind, s.fn, got, want)
		}
	}
}
