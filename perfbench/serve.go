package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// ---- serve-cached: one fixed round of cached requests per operation ----

type serveInput struct {
	input
	body    []byte   // the POST /v1/analyze request
	id      string   // the cached result's id
	globals []string // the seeded query pool
	want    map[string]string
}

// serveOp queries k globals of one input, by index into its pool.
type serveOp struct {
	in      int
	globals []int
}

type serveBench struct {
	bin      string
	d        *daemon
	inputs   []*serveInput
	plan     []serveOp
	pool     int
	seed     int64
	warmups  int
	traceOps int
}

func newServeBench(bin string, seed int64, perInput, k int, ins ...input) *serveBench {
	b := &serveBench{bin: bin, pool: 8, seed: seed, warmups: 5, traceOps: 40}
	for _, in := range ins {
		b.inputs = append(b.inputs, &serveInput{input: in})
	}
	r := rand.New(rand.NewSource(seed))
	for _, in := range interleave(r, len(ins), perInput) {
		b.plan = append(b.plan, serveOp{in: in, globals: r.Perm(b.pool)[:k]})
	}
	return b
}

// open posts in's source (a cache miss: fsamd analyzes it), warms its
// diagnostics, and picks its query pool.
func (b *serveBench) open(ctx context.Context, d *daemon, in *serveInput, seed int64) error {
	if err := in.generate(); err != nil {
		return err
	}
	prog, err := pipeline.Compile(in.label(), in.src)
	if err != nil {
		return err
	}
	gs := globalNames(prog)
	if len(gs) < b.pool {
		return fmt.Errorf("%s: %d globals, need %d", in.label(), len(gs), b.pool)
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	in.globals = gs[:b.pool]
	if in.body, err = json.Marshal(server.AnalyzeRequest{Name: in.label(), Source: in.src}); err != nil {
		return err
	}
	code, body, err := d.call(http.MethodPost, "/v1/analyze", in.body)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("%s: analyze: %d %v %s", in.label(), code, err, body)
	}
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	in.id = resp.ID
	code, body, err = d.call(http.MethodGet, "/v1/diagnostics?id="+url.QueryEscape(in.id), nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("%s: diagnostics: %d %v %s", in.label(), code, err, body)
	}
	return nil
}

// round issues one operation's requests, each under its own span, and
// returns every response body by request.
func (b *serveBench) round(d *daemon, t *tracer, root *span, in *serveInput, globals []int) (map[string][]byte, error) {
	out := map[string][]byte{}
	call := func(spanName, key, method, path string, body []byte) error {
		return t.do(root, spanName, func() error {
			code, resp, err := d.call(method, path, body)
			if err != nil {
				return fmt.Errorf("%s %s: %w", method, key, err)
			}
			if code != http.StatusOK {
				return fmt.Errorf("%s %s: status %d: %s", method, key, code, resp)
			}
			out[key] = resp
			return nil
		})
	}
	if err := call("server.analyze", "analyze", http.MethodPost, "/v1/analyze", in.body); err != nil {
		return nil, err
	}
	q := url.QueryEscape(in.id)
	if err := call("server.diagnostics", "diagnostics", http.MethodGet, "/v1/diagnostics?id="+q, nil); err != nil {
		return nil, err
	}
	for _, g := range globals {
		name := in.globals[g]
		if err := call("server.pointsto", "pointsto:"+name, http.MethodGet,
			"/v1/pointsto?id="+q+"&global="+url.QueryEscape(name), nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func digestBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

// check requires the analyze answer to be a cache hit and every body to
// equal the one recorded in prepare.
func (in *serveInput) check(bodies map[string][]byte) error {
	var resp server.AnalyzeResponse
	if err := json.Unmarshal(bodies["analyze"], &resp); err != nil {
		return fmt.Errorf("%s: analyze response: %w", in.label(), err)
	}
	if !resp.Cached {
		return fmt.Errorf("%s: analyze answered cached=false", in.label())
	}
	for key, body := range bodies {
		if got := digestBytes(body); got != in.want[key] {
			return fmt.Errorf("%s: %s body digest %s, recorded %s", in.label(), key, got, in.want[key])
		}
	}
	return nil
}

func (b *serveBench) setup(ctx context.Context) error {
	b.close()
	d, err := startDaemon(ctx, b.bin)
	if err != nil {
		return err
	}
	b.d = d
	for k, in := range b.inputs {
		if err := b.open(ctx, d, in, b.seed+int64(k)); err != nil {
			return err
		}
	}
	first := make([]int, len(b.plan[0].globals))
	for i := range first {
		first[i] = i
	}
	for w := 0; w < b.warmups; w++ {
		for _, in := range b.inputs {
			if err := in.timed(func() error { _, err := b.round(d, nil, nil, in, first); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *serveBench) prepare(ctx context.Context) error {
	all := make([]int, b.pool)
	for i := range all {
		all[i] = i
	}
	for _, in := range b.inputs {
		bodies, err := b.round(b.d, nil, nil, in, all)
		if err != nil {
			return err
		}
		in.want = map[string]string{}
		for key, body := range bodies {
			in.want[key] = digestBytes(body)
		}
		if err := in.check(bodies); err != nil {
			return err
		}
	}
	return nil
}

func (b *serveBench) ops() int                        { return len(b.plan) }
func (b *serveBench) label(i int) string              { return b.inputs[b.plan[i].in].label() }
func (b *serveBench) measured() proc                  { return proc{pid: b.d.pid()} }
func (b *serveBench) owns(g string) bool              { return g != groupDelta }
func (b *serveBench) warmMedians() map[string]float64 { return warmMedians(b.inputs) }

func (b *serveBench) close() {
	if b.d != nil {
		b.d.stop()
		b.d = nil
	}
}

func (b *serveBench) op(ctx context.Context, i int) (func() error, error) {
	o := b.plan[i]
	in := b.inputs[o.in]
	bodies, err := b.round(b.d, nil, nil, in, o.globals)
	if err != nil {
		return nil, err
	}
	return func() error { return in.check(bodies) }, nil
}

// cacheCounters reads fsamd's result-cache hit and miss totals.
func cacheCounters(d *daemon) (hits, misses float64, err error) {
	code, body, err := d.call(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return 0, 0, fmt.Errorf("metrics: %d %v", code, err)
	}
	s := harness.ParsePromText(string(body))
	return harness.PromSum(s, "fsamd_cache_hits_total"), harness.PromSum(s, "fsamd_cache_misses_total"), nil
}

// serveTraced replays ops, each under a root span called rootName, and
// adds the server counters.
func (b *serveBench) serveTraced(t *tracer, rootName string, ops []serveOp, c *counts) error {
	h0, m0, err := cacheCounters(b.d)
	if err != nil {
		return err
	}
	for _, o := range ops {
		in := b.inputs[o.in]
		root := t.begin(nil, rootName)
		bodies, err := b.round(b.d, t, root, in, o.globals)
		t.end(root)
		if err != nil {
			return err
		}
		if err := in.check(bodies); err != nil {
			return err
		}
		n := 0
		for _, body := range bodies {
			n += len(body)
		}
		c.add("server.resp_kb", float64(n)/1024)
	}
	h1, m1, err := cacheCounters(b.d)
	if err != nil {
		return err
	}
	if h1+m1 > h0+m0 {
		c.add("server.cache_hit_frac", (h1-h0)/(h1-h0+m1-m0))
	}
	return nil
}

// tracePass analyzes and checks each input layer by layer (the analysis
// and checker layers, on this workload's own programs) and compares the
// outcome with an in-process facade run, then replays the plan's first
// traceOps rounds.
func (b *serveBench) tracePass(ctx context.Context, t *tracer, c *counts) error {
	for _, in := range b.inputs {
		if err := diagnoseStaged(ctx, t, "open", "", &in.input, c); err != nil {
			return err
		}
	}
	return b.serveTraced(t, "op", b.plan[:b.traceOps], c)
}
