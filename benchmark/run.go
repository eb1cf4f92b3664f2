package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// result is one pass (untraced or traced) of one workload.
type result struct {
	workload  string
	traced    bool
	metrics   metrics
	attempted int
	failed    int
}

// newEnv derives a workload's inputs from the seed.
func newEnv(w *workloadDef, seed int64, sz sizing, window time.Duration, outDir string) *env {
	return &env{seed: seed, sz: sz, window: window, outDir: outDir, gen: newGenerator(seed, w.catalogue(sz))}
}

// writerOf returns the client that owns versioned keys, if any.
func writerOf(cs []*client) *client {
	for _, c := range cs {
		if c.live != nil {
			return c
		}
	}
	return nil
}

// probeClasses are the operation classes an end-to-end metric needs;
// one the workload's own mix does not contain is probed beside it.
var probeClasses = []opClass{opDiscover, opLimit10, opRegister}

// issues reports whether any of the clients' streams holds an op of
// class c.
func issues(clients []*client, c opClass) bool {
	for _, cl := range clients {
		if slices.ContainsFunc(cl.stream, func(o op) bool { return o.class == c }) {
			return true
		}
	}
	return false
}

// probeGroups returns, for every operation class an end-to-end metric
// needs and the workload's clients do not issue, a group of as many
// clients that issue that class alone (two writers use disjoint key
// pools).
func probeGroups(ctx context.Context, e *env, ov overlay, clients []*client) ([]probeGroup, error) {
	var groups []probeGroup
	for _, class := range probeClasses {
		if issues(clients, class) {
			continue
		}
		g := probeGroup{class: class, clients: make([]*client, len(clients))}
		for i := range g.clients {
			if class == opRegister {
				g.clients[i] = writer(e, ov.target(i), "p"+strconv.Itoa(i))
				if err := g.clients[i].prime(ctx); err != nil {
					return nil, err
				}
			} else {
				g.clients[i] = &client{tgt: ov.target(i), stream: e.gen.probeStream(class, i, e.sz.streamLen/8)}
			}
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// timedSetup builds the workload's overlay between two calibrations and
// returns it with the set-up time at nominal core speed.
func timedSetup(ctx context.Context, w *workloadDef, e *env) (overlay, float64, error) {
	runtime.GC() // every set-up starts from the same heap, whatever the one before left
	before := calibrate()
	start := time.Now()
	ov, err := w.build(ctx, e, false)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	elapsed := time.Since(start).Seconds()
	return ov, elapsed * (before + calibrate()) / 2, nil
}

// runUntraced is the end-to-end pass of one workload, with the
// program's observability off: set-up (repeated, median reported),
// warm-up, the timed window of calibrated rounds — the workload's own
// mix and a probe of every operation class it does not contain — then
// the correctness checks.
func runUntraced(ctx context.Context, w *workloadDef, e *env) (*result, error) {
	res := &result{workload: w.name, metrics: metrics{}}

	// Set-up is repeated, at least sz.setups times and for at least
	// sz.setupFor in all, and the median is reported; the last overlay
	// built is the one the window runs on.
	var ov overlay
	var setups []float64
	for began := time.Now(); len(setups) < e.sz.setups || time.Since(began) < e.sz.setupFor; {
		if ov != nil {
			if err := ov.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		var s float64
		var err error
		if ov, s, err = timedSetup(ctx, w, e); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	closed := false
	defer func() {
		if !closed {
			_ = ov.close() // error path; the success path checks close below
		}
	}()
	res.metrics.set("setup_s", "s", median(setups), len(setups))

	clients := w.clients(e, ov)
	if e.corrupt {
		for _, c := range clients {
			corruptExpectation(c.stream)
		}
	}
	wr := writerOf(clients)
	if wr != nil {
		if err := wr.prime(ctx); err != nil {
			return nil, err
		}
	}
	groups, err := probeGroups(ctx, e, ov, clients)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	win, err := runWindow(ctx, e.sz, clients, groups, e.window)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.metrics.set("heap_mb", "MB", heapMB(), 1)
	summarize(win, res.metrics)
	total := win.main
	for i := range win.probes {
		total.merge(&win.probes[i])
	}
	res.attempted, res.failed = total.attempted, total.failed
	res.metrics.set("failed_ratio", "ratio", float64(total.failed)/float64(max(total.attempted, 1)), total.attempted)
	if wr != nil {
		res.metrics.set("stale_read_ratio", "ratio", float64(total.stale)/float64(max(total.ops, 1)), total.stale)
	}

	if err := ov.validate(ctx); err != nil {
		return nil, wrongf("%s: validate after the window: %v", w.name, err)
	}
	if w.after != nil {
		if err := w.after(ctx, e, ov, clients, res.metrics); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	closed = true
	if err := ov.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	return res, nil
}

// corruptExpectation falsifies what the model expects of every op of
// a stream, so a correct program now "answers wrongly" and the run
// must abort — the test hook behind -corrupt-model.
func corruptExpectation(stream []op) {
	for i := range stream {
		stream[i].found = !stream[i].found
		stream[i].count++
	}
}
