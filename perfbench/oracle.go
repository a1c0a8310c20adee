package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pts"
)

// goldens.json pins, per input ("program@scale"), the digests of the
// default-config sparse flow-sensitive result: points-to over every
// source variable and global exit, and the full diagnostics suite.
// Regenerate with `perfbench -update-goldens perfbench/goldens.json` only
// when a change is meant to alter analysis answers.
//
//go:embed goldens.json
var goldensJSON []byte

type golden struct {
	PTS   string `json:"pts"`
	Diags string `json:"diags,omitempty"`
}

func loadGoldens() (map[string]golden, error) {
	var g map[string]golden
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// ptsView is the part of a points-to result the digest reads: the
// per-variable sets and the exit value of each global.
type ptsView struct {
	prog *ir.Program
	vars func(*ir.Var) *pts.Set
	exit func(*ir.Object) *pts.Set
}

func facadeView(a *fsam.Analysis) ptsView {
	return ptsView{prog: a.Prog, vars: a.PointsToVar, exit: func(o *ir.Object) *pts.Set {
		if a.Result == nil {
			return nil
		}
		return a.Result.ObjAtExit(a.Prog.Main, o)
	}}
}

// ptsDigest hashes the points-to set of every source variable (the
// def-use builder's synthetic variables are excluded: an incremental
// rebind does not recreate them) and every global's exit value, each set
// rendered as its object names. Interned sets are hashed once.
func ptsDigest(v ptsView) string {
	names := func(s *pts.Set) uint64 {
		h := fnv.New64a()
		s.ForEach(func(id uint32) {
			h.Write([]byte(v.prog.Objects[id].Name))
			h.Write([]byte{0})
		})
		return h.Sum64()
	}
	memo := map[*pts.Set]uint64{}
	setHash := func(s *pts.Set) uint64 {
		if s == nil {
			return 0
		}
		if h, ok := memo[s]; ok {
			return h
		}
		h := names(s)
		memo[s] = h
		return h
	}
	h := sha256.New()
	for _, x := range v.prog.Vars {
		if x.Func == nil {
			continue
		}
		fmt.Fprintf(h, "v%d %s %x\n", x.ID, x.Name, setHash(v.vars(x)))
	}
	for _, o := range v.prog.Objects {
		if o.Kind == ir.ObjGlobal {
			fmt.Fprintf(h, "g %s %x\n", o.Name, setHash(v.exit(o)))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// diagDigest hashes a diagnostics list independently of its order.
func diagDigest(ds []diag.Diagnostic) string {
	lines := make([]string, 0, len(ds))
	for _, d := range ds {
		lines = append(lines, fmt.Sprintf("%s|%s|%s|%d|%s|%s|%v|%v|%s",
			d.Checker, d.Severity, d.File, d.Line, d.Object, d.Message, d.Threads, d.Related, d.Fingerprint))
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:16])
}

// observation is one concrete load: the variable it defined and the
// object the interpreter saw it read.
type observation struct {
	v   ir.VarID
	obj ir.ObjID
}

// observe runs prog under each schedule seed and returns every distinct
// non-null load target. Runs that stop early (fuel, deadlock, a null
// dereference) still executed real prefixes, so their loads count too.
func observe(prog *ir.Program, seeds []int64) []observation {
	seen := map[observation]bool{}
	var out []observation
	for _, s := range seeds {
		for _, o := range interp.Run(prog, s, 0).Observations {
			if o.Value.Obj == nil {
				continue
			}
			ob := observation{o.Load.Dst.ID, o.Value.Obj.ID}
			if !seen[ob] {
				seen[ob] = true
				out = append(out, ob)
			}
		}
	}
	return out
}

// covered checks that every observed load target lies in the result's
// points-to set for that load. The result's program must be compiled from
// the same source as the observed one, so ids agree.
func covered(v ptsView, obs []observation) error {
	for _, ob := range obs {
		if int(ob.v) >= len(v.prog.Vars) {
			return fmt.Errorf("observed variable %d missing from result", ob.v)
		}
		x := v.prog.Vars[ob.v]
		if s := v.vars(x); s == nil || !s.Has(uint32(ob.obj)) {
			return fmt.Errorf("load into %s observed %s, outside its points-to set",
				x.Name, v.prog.Objects[ob.obj].Name)
		}
	}
	return nil
}
