package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// histFirst is the one histogram kept beside the per-class ones:
// stream open to first key, over scan and first ops.
const (
	histFirst = int(numClasses)
	numHists  = histFirst + 1
	// histWrite is a reading's slot for register and unregister taken
	// together; no client records into it.
	histWrite   = numHists
	numReadings = histWrite + 1
)

// sliceStats is what one client recorded during one slice of a round,
// or several of those merged.
type sliceStats struct {
	h         [numHists]hist
	ops       int // completed without error
	attempted int
	failed    int // error returns
	scanKeys  int // keys delivered by drained scan ops
	hops      int // physical hops summed over found discovers
	hopOps    int
	stale     int // reads that disagreed with the model once and agreed on re-issue
	// firstStart and lastEnd bound the ops recorded here; throughput
	// is taken over this measured span, not the nominal slice length.
	firstStart, lastEnd time.Time
}

func (s *sliceStats) seconds() float64 { return s.lastEnd.Sub(s.firstStart).Seconds() }

func (s *sliceStats) reset() { *s = sliceStats{} }

func (s *sliceStats) merge(o *sliceStats) {
	for i := range s.h {
		s.h[i].merge(&o.h[i])
	}
	s.ops += o.ops
	s.attempted += o.attempted
	s.failed += o.failed
	s.scanKeys += o.scanKeys
	s.hops += o.hops
	s.hopOps += o.hopOps
	s.stale += o.stale
	if s.firstStart.IsZero() || (!o.firstStart.IsZero() && o.firstStart.Before(s.firstStart)) {
		s.firstStart = o.firstStart
	}
	if o.lastEnd.After(s.lastEnd) {
		s.lastEnd = o.lastEnd
	}
}

// client is one load-generating goroutine: a pre-generated op stream
// replayed cyclically against one target in a closed loop (the next op
// is issued when the previous one returns).
type client struct {
	tgt    target
	stream []op
	pos    int
	// live tracks which versioned key slots this client has
	// registered; nil for clients that never write.
	live []bool
	// maintain, when set, runs inside the timed section of every
	// write, so the maintenance it performs every so many writes shows
	// up as write latency (churn-live).
	maintain func(ctx context.Context, writes int) error
	writes   int
	// racy marks a reader that runs beside a writer. The overlay has
	// no linearizable-read contract: a traversal in flight across a
	// tree node that a concurrent write splits or compacts can miss a
	// registered key. For such a reader a disagreement with the model
	// is re-issued (untimed); only one that persists is a wrong answer,
	// the others are counted as stale reads.
	racy bool
}

// staleRetries bounds the re-issues of a racy reader's disagreeing read.
const staleRetries = 3

// exec runs one op, checks the answer against the model and records
// its latency. An error return of the program under test counts in
// st.failed; exec itself fails only on a wrong answer or a cancelled
// run.
func (c *client) exec(ctx context.Context, o *op, st *sliceStats) error {
	start := time.Now()
	var err error
	switch o.class {
	case opDiscover:
		var eps []string
		var found bool
		var hops int
		eps, found, hops, err = c.tgt.discover(ctx, o.key)
		if err != nil {
			break
		}
		for try := 0; c.racy && found != o.found && try < staleRetries; try++ {
			if try == 0 {
				st.stale++
			}
			if eps, found, hops, err = c.tgt.discover(ctx, o.key); err != nil {
				return fmt.Errorf("re-issue discover %q: %w", o.key, err)
			}
		}
		if found != o.found {
			return wrongf("discover %q: found=%t, model says %t", o.key, found, o.found)
		}
		if found {
			if !slices.Contains(eps, endpoint) {
				return wrongf("discover %q: endpoints %v lack %q", o.key, eps, endpoint)
			}
			st.hops += hops
			st.hopOps++
		}
	case opRegister, opUnregister:
		if o.class == opRegister {
			err = c.tgt.register(ctx, o.key)
		} else {
			var was bool
			was, err = c.tgt.unregister(ctx, o.key)
			if err == nil && !was {
				return wrongf("unregister %q: reported absent, model says registered", o.key)
			}
		}
		if err == nil {
			c.live[o.dyn] = o.class == opRegister
			c.writes++
			if c.maintain != nil {
				err = c.maintain(ctx, c.writes)
			}
		}
	default:
		var res listResult
		res, err = c.tgt.list(ctx, o)
		if err != nil {
			break
		}
		for try := 0; c.racy && !res.matches(o) && try < staleRetries; try++ {
			if try == 0 {
				st.stale++
			}
			if res, err = c.tgt.list(ctx, o); err != nil {
				return fmt.Errorf("re-issue %s %q: %w", classNames[o.class], o.key, err)
			}
		}
		if !res.matches(o) {
			return wrongf("%s %q..%q: got %d keys [%q..%q] ordered=%t, model says %d [%q..%q]",
				classNames[o.class], o.key, o.hi, res.count, res.first, res.last, res.ordered, o.count, o.first, o.last)
		}
		if o.class != opLimit10 {
			st.h[histFirst].record(res.firstNs)
		}
		if o.class == opScan {
			st.scanKeys += res.count
		}
	}
	end := time.Now()
	lat := end.Sub(start)
	if st.firstStart.IsZero() {
		st.firstStart = start
	}
	st.lastEnd = end
	st.attempted++
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if err != nil {
		st.failed++
		return nil
	}
	st.ops++
	st.h[o.class].record(lat.Nanoseconds())
	return nil
}

// run replays the stream in a closed loop until the clock passes
// until, recording into st.
func (c *client) run(ctx context.Context, until time.Time, st *sliceStats) error {
	for time.Now().Before(until) {
		if err := c.exec(ctx, c.next(), st); err != nil {
			return err
		}
	}
	return nil
}

// next returns the next op of the cyclic stream.
func (c *client) next() *op {
	o := &c.stream[c.pos]
	c.pos = (c.pos + 1) % len(c.stream)
	return o
}

// runSlice is one stretch of a round: every client of one group runs
// concurrently for d, each recording into its own element of per, and
// the recordings are merged into st.
func runSlice(ctx context.Context, clients []*client, d time.Duration, per []sliceStats, st *sliceStats) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	until := time.Now().Add(d)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		per[i].reset()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = c.run(ctx, until, &per[i]); errs[i] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if isWrong(err) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st.reset()
	for i := range per {
		st.merge(&per[i])
	}
	return nil
}

// probeGroup is the pair of clients that issue one operation class the
// workload's own mix does not contain.
type probeGroup struct {
	class   opClass
	clients []*client
}

// reading is what one slice of one round measured, already reduced to
// numbers: the histograms are reused by the next round.
type reading struct {
	ops, scanKeys int
	seconds       float64
	n             [numReadings]int
	p50, p99      [numReadings]float64 // ns
}

func (r *reading) from(st *sliceStats) {
	r.ops, r.scanKeys, r.seconds = st.ops, st.scanKeys, st.seconds()
	set := func(i int, h *hist) {
		r.n[i], r.p50[i], r.p99[i] = int(h.n), h.quantile(0.50), h.quantile(0.99)
	}
	for i := range st.h {
		set(i, &st.h[i])
	}
	writes := st.h[opRegister]
	writes.merge(&st.h[opUnregister])
	set(histWrite, &writes)
}

// round is one round of the timed window: the workload's own mix for
// sizing.round, then each probe group for sizing.probeSlice. A
// calibration runs before the first round and after every round.
type round struct {
	speed  float64 // core speed during the round, steps per nanosecond
	main   reading
	probes []reading // one per probe group
}

// windowResult is the outcome of one timed window: the per-round
// readings, and everything the main slices and each probe group's
// slices recorded, summed over the rounds.
type windowResult struct {
	rounds      []round
	groups      []probeGroup
	main        sliceStats
	probes      []sliceStats // one per probe group
	mainMallocs uint64       // process-wide allocations during the main slices
}

// runWindow drives the clients through a warm-up (not recorded) and
// then through window/sz.round rounds.
func runWindow(ctx context.Context, sz sizing, clients []*client, groups []probeGroup, window time.Duration) (*windowResult, error) {
	per := make([]sliceStats, len(clients))
	var st sliceStats
	slice := func(cs []*client, d time.Duration, class string) error {
		if err := runSlice(ctx, cs, d, per, &st); err != nil {
			return fmt.Errorf("%s: %w", class, err)
		}
		return nil
	}
	if err := slice(clients, sz.warmup, "warm-up"); err != nil {
		return nil, err
	}
	for _, g := range groups {
		if err := slice(g.clients, sz.probeSlice, "warm-up of probe "+classNames[g.class]); err != nil {
			return nil, err
		}
	}
	n := max(int(window/sz.round), 1)
	win := &windowResult{rounds: make([]round, n), groups: groups, probes: make([]sliceStats, len(groups))}
	calib := make([]float64, 1, n+1) // calib[i] precedes round i, calib[i+1] follows it
	calib[0] = calibrate()
	for i := range win.rounds {
		r := &win.rounds[i]
		r.probes = make([]reading, len(groups))
		before := mallocs()
		if err := slice(clients, sz.round, "window"); err != nil {
			return nil, err
		}
		win.mainMallocs += mallocs() - before
		r.main.from(&st)
		win.main.merge(&st)
		for j, g := range groups {
			if err := slice(g.clients, sz.probeSlice, "probe "+classNames[g.class]); err != nil {
				return nil, err
			}
			r.probes[j].from(&st)
			win.probes[j].merge(&st)
		}
		calib = append(calib, calibrate())
	}
	// A round's speed is the median of the two calibrations around it
	// and the next one on either side: a core changes speed every few
	// seconds, a single calibration can be cut short by whatever else
	// the box runs.
	for i := range win.rounds {
		win.rounds[i].speed = median(calib[max(i-1, 0):min(i+3, len(calib))])
	}
	return win, nil
}

// mallocs reads the process-wide cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
