package main

import (
	"context"
	"fmt"
)

// The probes fill, in a traced run, the layer groups the workload's own
// operations do not exercise. Their inputs are small and fixed, so a
// probe's numbers change only when its layer does.
var (
	probeInput      = input{prog: "httpd_server", scale: 2}
	serveProbeInput = input{prog: "word_count", scale: 4}
)

// probe runs the probe for group under root spans named "probe". The
// analysis a probe needs first is recorded under "probe."-prefixed spans
// and counters, apart from the workload's own.
func probe(ctx context.Context, group string, t *tracer, c *counts, fsamdBin string) error {
	switch group {
	case groupCheckers:
		in := probeInput
		if err := in.generate(); err != nil {
			return err
		}
		return diagnoseStaged(ctx, t, "probe", "probe.", &in, c)
	case groupDelta:
		b := newEditBench(1, 1, 1, 1, 1, probeInput)
		if err := b.setup(ctx); err != nil {
			return err
		}
		if err := b.prepare(ctx); err != nil {
			return err
		}
		for _, e := range b.plan {
			root := t.begin(nil, "probe")
			a, err := b.edit(ctx, t, root, "probe.compile", e, c)
			t.end(root)
			if err != nil {
				return err
			}
			if err := b.verify(e, a); err != nil {
				return err
			}
		}
		return nil
	case groupServer:
		b := newServeBench(fsamdBin, 1, 10, 4, serveProbeInput)
		defer b.close()
		if err := b.setup(ctx); err != nil {
			return err
		}
		if err := b.prepare(ctx); err != nil {
			return err
		}
		return b.serveTraced(t, "probe", b.plan, c)
	}
	return fmt.Errorf("no probe for layer group %q", group)
}
