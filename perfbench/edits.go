package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Edit kinds. A constant bump changes one filler statement's trailing
// constant: the function's content address changes but its CFG stays
// isomorphic, so AnalyzeDeltaCtx takes the iso tier. A comment edit
// appends a line comment: the program key is unchanged, so it takes the
// noop tier. Neither moves a line, so positions in results stay put.
const (
	editConst   = "const"
	editComment = "comment"
)

// site is one seeded edit of a generated suite program.
type site struct {
	kind string
	fn   string // the filler prefix, one per function
	src  string // the whole program with the edit applied
}

// fillerLine parses a generated filler statement
// "\t<fn>_acc = <fn>_acc * <a> + <b>;" and returns fn and b.
func fillerLine(ln string) (fn string, b int, ok bool) {
	t := strings.TrimSpace(ln)
	i := strings.Index(t, "_acc = ")
	if i <= 0 || !strings.HasSuffix(t, ";") {
		return "", 0, false
	}
	fn = t[:i]
	if !strings.HasPrefix(t[i+len("_acc = "):], fn+"_acc * ") {
		return "", 0, false
	}
	k := strings.LastIndex(t, " + ")
	if k < 0 {
		return "", 0, false
	}
	b, err := strconv.Atoi(t[k+3 : len(t)-1])
	if err != nil {
		return "", 0, false
	}
	return fn, b, true
}

// editSites picks nConst constant bumps on distinct lines of one function
// and nComment comment edits, each in another function. Only filler lines
// qualify: they are side-effect-free integer churn, so a bump cannot
// change a points-to answer. Randprog's mutators do not fit these
// programs (statement mutation references names the suite does not
// declare; constant mutation lands in the noop tier), hence this
// generator.
//
// The functions are a fixed choice and the constant bumps share one,
// because the cost of an iso-tier re-analysis depends on which function
// changed: with one cost per program, the latency percentiles never sit
// on a boundary between sites. The seed picks the lines, which leaves
// the cost alone.
func editSites(src string, nConst, nComment int, seed int64) ([]site, error) {
	lines := strings.Split(src, "\n")
	byFn := map[string][]int{}
	for i, ln := range lines {
		if fn, _, ok := fillerLine(ln); ok {
			byFn[fn] = append(byFn[fn], i)
		}
	}
	fns := make([]string, 0, len(byFn))
	for fn := range byFn {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	rand.New(rand.NewSource(1)).Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
	constFn := -1
	for k, fn := range fns {
		if len(byFn[fn]) >= nConst {
			constFn = k
			break
		}
	}
	if constFn < 0 || len(fns) < 1+nComment {
		return nil, fmt.Errorf("%d functions with filler lines: none with %d lines, or fewer than %d", len(fns), nConst, 1+nComment)
	}
	r := rand.New(rand.NewSource(seed))
	edit := func(kind, fn string, i int) site {
		orig := lines[i]
		if kind == editComment {
			lines[i] = orig + " // edited"
		} else {
			_, b, _ := fillerLine(orig)
			lines[i] = fmt.Sprintf("%s + %d;", orig[:strings.LastIndex(orig, " + ")], b+1)
		}
		s := site{kind: kind, fn: fn, src: strings.Join(lines, "\n")}
		lines[i] = orig
		return s
	}
	var out []site
	cand := byFn[fns[constFn]]
	for _, j := range r.Perm(len(cand))[:nConst] {
		out = append(out, edit(editConst, fns[constFn], cand[j]))
	}
	for k := 0; len(out) < nConst+nComment; k++ {
		if k == constFn {
			continue
		}
		cand := byFn[fns[k]]
		out = append(out, edit(editComment, fns[k], cand[r.Intn(len(cand))]))
	}
	return out, nil
}
