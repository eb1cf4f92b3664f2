package main

import (
	"context"
	"fmt"
	"path/filepath"

	"dlpt"
)

// spanTarget wraps a target so that every call the harness makes into
// it is recorded as a span named "<surface>.<call>", all spans of one
// replayed op sharing that op's index.
type spanTarget struct {
	inner   target
	tr      *tracer
	surface string
	op      int
}

func (t *spanTarget) discover(ctx context.Context, name string) ([]string, bool, int, error) {
	id := t.tr.begin(t.op, 0, t.surface+".discover")
	eps, found, hops, err := t.inner.discover(ctx, name)
	t.tr.end(id)
	return eps, found, hops, err
}

func (t *spanTarget) register(ctx context.Context, name string) error {
	id := t.tr.begin(t.op, 0, t.surface+".register")
	err := t.inner.register(ctx, name)
	t.tr.end(id)
	return err
}

func (t *spanTarget) unregister(ctx context.Context, name string) (bool, error) {
	id := t.tr.begin(t.op, 0, t.surface+".unregister")
	was, err := t.inner.unregister(ctx, name)
	t.tr.end(id)
	return was, err
}

func (t *spanTarget) list(ctx context.Context, o *op) (listResult, error) {
	id := t.tr.begin(t.op, 0, t.surface+"."+classNames[o.class])
	res, err := t.inner.list(ctx, o)
	t.tr.end(id)
	return res, err
}

// busiestClass returns the op class with the most samples in st (the
// lowest class on a tie) and its median latency in ns.
func busiestClass(st *sliceStats) (opClass, float64) {
	best := opClass(0)
	for c := opClass(1); c < numClasses; c++ {
		if st.h[c].n > st.h[best].n {
			best = c
		}
	}
	return best, st.h[best].quantile(0.5)
}

// tracedBlock is how many ops the traced pass replays on one overlay
// before it switches to the other; see ladderBlock.
const tracedBlock = 256

// runTraced is the per-layer pass of one workload. It replays a fixed
// number of client 0's ops single-client on two overlays in
// alternating blocks — a plain one, and one built with the program's
// observability on and with a harness span around every call — whose
// difference is the tracing overhead. Then it runs the per-layer
// suite and writes every span to <out>/<workload>.trace.json.
func runTraced(ctx context.Context, w *workloadDef, e *env) (*result, error) {
	res := &result{workload: w.name, traced: true, metrics: metrics{}}
	stream, n := w.traced(e)
	tr := newTracer(n + 8*e.sz.ladderOps + 4*e.sz.keys)

	plainOv, err := w.build(ctx, e, false)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer func() { _ = plainOv.close() }() // error paths; closing twice is harmless
	tracedOv, surface := plainOv, "admin"
	var reg *dlpt.Registry
	if w.observable {
		if tracedOv, err = w.build(ctx, e, true); err != nil {
			return nil, fmt.Errorf("%s: observed set-up: %w", w.name, err)
		}
		defer func() { _ = tracedOv.close() }()
		surface, reg = "registry", tracedOv.(*engineOverlay).reg
	}
	st := &spanTarget{inner: tracedOv.target(1), tr: tr, surface: surface}
	plainC := &client{tgt: plainOv.target(1), stream: stream}
	tracedC := &client{tgt: st, stream: stream}
	var plain, traced sliceStats
	for lo := 0; lo < n; lo += tracedBlock {
		hi := min(lo+tracedBlock, n)
		for i := lo; i < hi; i++ {
			if err := plainC.exec(ctx, plainC.next(), &plain); err != nil {
				return nil, fmt.Errorf("%s: untraced replay: %w", w.name, err)
			}
		}
		for i := lo; i < hi; i++ {
			st.op = i
			if err := tracedC.exec(ctx, tracedC.next(), &traced); err != nil {
				return nil, fmt.Errorf("%s: traced replay: %w", w.name, err)
			}
		}
	}
	class, plainP50 := busiestClass(&plain)
	res.metrics.set("replay.p50_us", "us", usOf(plainP50), int(plain.h[class].n))
	res.metrics.set("replay.p99_us", "us", usOf(plain.h[class].quantile(0.99)), int(plain.h[class].n))
	res.metrics.set("trace.overhead_us", "us", usOf(traced.h[class].quantile(0.5)-plainP50), int(traced.h[class].n))
	var programSpans uint64
	if reg != nil {
		programSpans = reg.Observability().Trace.Total()
	}
	res.metrics.set("trace.spans_per_op", "count", float64(programSpans)/float64(n), n)
	for _, ov := range []overlay{plainOv, tracedOv} {
		if err := ov.validate(ctx); err != nil {
			return nil, wrongf("%s: validate after the traced replay: %v", w.name, err)
		}
	}
	if err := plainOv.close(); err != nil {
		return nil, err
	}
	if w.observable {
		if err := tracedOv.close(); err != nil {
			return nil, err
		}
	}

	if err := newSuite(ctx, e, tr, res.metrics).run(); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	res.attempted = plain.attempted + traced.attempted
	res.failed = plain.failed + traced.failed
	if err := tr.write(filepath.Join(e.outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}
	return res, nil
}
