package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dlpt"
	"dlpt/internal/daemon"
	"dlpt/internal/keys"
)

// sizing fixes the scale of a run. The full size is what every
// reported number uses; quick exists so tests can run all five
// workloads in seconds and is never used for reported numbers.
type sizing struct {
	peers      int // overlay peers of the engine workloads
	keys       int // preloaded catalogue of the engine workloads
	daemonKeys int // catalogue preloaded through the steward
	// Set-up is repeated at least setups times and for at least
	// setupFor in all; the median is setup_s.
	setups    int
	setupFor  time.Duration
	warmup    time.Duration
	streamLen int // ops per pre-generated client stream (replayed cyclically)

	// The timed window is a sequence of rounds. In each the workload's
	// own clients run for round, then each probe group (two clients
	// issuing one operation class the workload's mix lacks) for
	// probeSlice.
	round, probeSlice time.Duration

	// traced-pass replay lengths, in ops
	tracedLookups, tracedScans, tracedCalls int
	// per-layer suite lengths
	ladderOps, layerScans, layerCalls int
}

var fullSize = sizing{
	peers: 64, keys: 20000, daemonKeys: 5000, setups: 3, setupFor: 1500 * time.Millisecond,
	warmup: time.Second, streamLen: 1 << 15,
	round: 100 * time.Millisecond, probeSlice: 15 * time.Millisecond,
	tracedLookups: 20000, tracedScans: 2000, tracedCalls: 5000,
	ladderOps: 20000, layerScans: 300, layerCalls: 400,
}

var quickSize = sizing{
	peers: 8, keys: 500, daemonKeys: 200, setups: 1,
	warmup: 200 * time.Millisecond, streamLen: 1 << 11,
	round: 50 * time.Millisecond, probeSlice: 10 * time.Millisecond,
	tracedLookups: 500, tracedScans: 60, tracedCalls: 100,
	ladderOps: 500, layerScans: 20, layerCalls: 20,
}

// overlaySeed fixes the overlay's own randomness (peer identifiers,
// entry draws). It is configuration of the system under test, like the
// peer count: -seed drives the op streams only, because a different
// ring changes the mean path length by several per cent and that
// would be charged to run-to-run spread.
const overlaySeed = 1

// env is everything one run of one workload needs.
type env struct {
	seed    int64
	sz      sizing
	window  time.Duration
	outDir  string
	gen     *generator
	corrupt bool // test hook: falsify one model entry so the run must abort
}

// overlay is a running system under test.
type overlay interface {
	// target returns the surface client i drives.
	target(i int) target
	validate(ctx context.Context) error
	close() error
}

// workloadDef is one named traffic mix.
type workloadDef struct {
	name string
	why  string
	// build sets the system up until the first op can be issued; its
	// duration is setup_s. observed builds the same overlay with the
	// program's observability on (the traced pass).
	build func(ctx context.Context, e *env, observed bool) (overlay, error)
	// clients returns the load generators for the timed window.
	clients func(e *env, ov overlay) []*client
	// after, when set, runs once the window and the probes are done
	// and may add workload-specific (ungated) metrics.
	after func(ctx context.Context, e *env, ov overlay, cs []*client, out metrics) error
	// traced is the op stream the traced pass replays and its length.
	traced func(e *env) ([]op, int)
	// catalogue is the number of preloaded keys.
	catalogue func(sz sizing) int
	// observable says build honours observed (the daemons always run
	// their own, unexported instrumentation).
	observable bool
}

func engineKeys(sz sizing) int { return sz.keys }
func daemonKeys(sz sizing) int { return sz.daemonKeys }

var workloads = []workloadDef{
	{
		name:      "lookup-local",
		why:       "Only trie/keys/core routing and the local adapter run: the floor a routing change moves and every transport or daemon change must leave alone.",
		build:     engineBuilder(dlpt.EngineLocal, false),
		clients:   lookupClients,
		traced:    func(e *env) ([]op, int) { return e.gen.lookupStream(0, e.sz.streamLen), e.sz.tracedLookups },
		catalogue: engineKeys, observable: true,
	},
	{
		name:      "lookup-tcp",
		why:       "The same two op streams as lookup-local over pooled loopback sockets: small frames, about three hops each, so the difference between the two is the transport.",
		build:     engineBuilder(dlpt.EngineTCP, false),
		clients:   lookupClients,
		traced:    func(e *env) ([]op, int) { return e.gen.lookupStream(0, e.sz.streamLen), e.sz.tracedLookups },
		catalogue: engineKeys, observable: true,
	},
	{
		name:  "scan-tcp",
		why:   "Few large STREAM frames instead of many small requests: drained scans, limit-10 completions and abandoned streams catch a lookup gain that costs streaming.",
		build: engineBuilder(dlpt.EngineTCP, false),
		clients: func(e *env, ov overlay) []*client {
			return []*client{
				{tgt: ov.target(0), stream: e.gen.scanStream(0, e.sz.streamLen)},
				{tgt: ov.target(1), stream: e.gen.scanStream(1, e.sz.streamLen)},
			}
		},
		traced:    func(e *env) ([]op, int) { return e.gen.scanStream(0, e.sz.streamLen), e.sz.tracedScans },
		catalogue: engineKeys, observable: true,
	},
	{
		name:    "churn-live",
		why:     "One hot-spot reader beside one writer with snapshots, balancing and membership changes on a durable live overlay: shows a read gain bought with write stalls.",
		build:   engineBuilder(dlpt.EngineLive, true),
		clients: churnClients,
		after:   churnAfter,
		traced: func(e *env) ([]op, int) {
			return e.gen.readerStream("churn/reader", e.sz.streamLen, 0.2, true), e.sz.tracedLookups
		},
		catalogue: engineKeys, observable: true,
	},
	{
		name:    "steward-daemon",
		why:     "Three dlptd daemons over loopback, a writer on one member and a reader on the other: the JSON admin codec, a dial per call, member-to-steward forwarding and the APPLY broadcast users of dlptd pay.",
		build:   daemonBuilder,
		clients: daemonClients,
		traced: func(e *env) ([]op, int) {
			return e.gen.readerStream("daemon/reader", e.sz.streamLen, 0.1, false), e.sz.tracedCalls
		},
		catalogue: daemonKeys,
	},
}

func findWorkload(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// engineOverlay is a dlpt.Registry, with its persistence directory
// when the workload is durable.
type engineOverlay struct {
	reg  *dlpt.Registry
	kind dlpt.EngineKind
	dir  string
}

func (o *engineOverlay) target(int) target                  { return registryTarget{o.reg} }
func (o *engineOverlay) validate(ctx context.Context) error { return o.reg.Validate(ctx) }
func (o *engineOverlay) close() error {
	err := o.reg.Close()
	if o.dir != "" {
		err = errors.Join(err, os.RemoveAll(o.dir))
	}
	return err
}

func engineBuilder(kind dlpt.EngineKind, durable bool) func(context.Context, *env, bool) (overlay, error) {
	return func(ctx context.Context, e *env, observed bool) (overlay, error) {
		opts := []dlpt.Option{dlpt.WithSeed(overlaySeed), dlpt.WithAlphabet(keys.LowerAlnum), dlpt.WithEngine(kind)}
		ov := &engineOverlay{kind: kind}
		if durable {
			dir, err := os.MkdirTemp(e.outDir, "persist-")
			if err != nil {
				return nil, err
			}
			ov.dir = dir
			opts = append(opts, dlpt.WithPersistence(dir))
		}
		if observed {
			opts = append(opts, dlpt.WithObservability(dlpt.NewObservability()))
		}
		reg, err := dlpt.New(e.sz.peers, opts...)
		if err != nil {
			return nil, errors.Join(err, os.RemoveAll(ov.dir))
		}
		ov.reg = reg
		batch := make([]dlpt.Registration, len(e.gen.corpus))
		for i, k := range e.gen.corpus {
			batch[i] = dlpt.Registration{Name: string(k), Endpoint: endpoint}
		}
		if err := reg.RegisterBatch(ctx, batch); err != nil {
			return nil, errors.Join(err, ov.close())
		}
		return ov, nil
	}
}

func lookupClients(e *env, ov overlay) []*client {
	return []*client{
		{tgt: ov.target(0), stream: e.gen.lookupStream(0, e.sz.streamLen)},
		{tgt: ov.target(1), stream: e.gen.lookupStream(1, e.sz.streamLen)},
	}
}

// writer returns a client replaying the cyclic register/unregister
// stream over its own pool of versioned keys, named by tag. The caller
// primes it before the window.
func writer(e *env, tgt target, tag string) *client {
	stream := e.gen.writerStream(tag, e.sz.streamLen)
	return &client{tgt: tgt, stream: stream, live: make([]bool, len(stream)/2)}
}

// prime registers the versioned keys the writer's cyclic stream
// expects to find.
func (c *client) prime(ctx context.Context) error {
	for _, o := range writerPrologue(c.stream) {
		if err := c.tgt.register(ctx, o.key); err != nil {
			return fmt.Errorf("prime writer: %w", err)
		}
		c.live[o.dyn] = true
	}
	return nil
}

// liveKeys lists the versioned keys the writer currently has
// registered.
func (c *client) liveKeys() []string {
	var out []string
	if c.live == nil {
		return nil
	}
	for _, o := range c.stream {
		if o.class == opRegister && c.live[o.dyn] {
			out = append(out, o.key)
		}
	}
	return out
}

// Maintenance cadence of churn-live, in writes.
const (
	replicateEvery = 500
	balanceEvery   = 2000
)

func churnClients(e *env, ov overlay) []*client {
	reg := ov.(*engineOverlay).reg
	w := writer(e, ov.target(1), "c")
	grow := true
	w.maintain = func(ctx context.Context, writes int) error {
		if writes%replicateEvery == 0 {
			if _, err := reg.Replicate(ctx); err != nil {
				return fmt.Errorf("replicate: %w", err)
			}
		}
		if writes%balanceEvery != 0 {
			return nil
		}
		if err := reg.Tick(ctx); err != nil {
			return fmt.Errorf("tick: %w", err)
		}
		if _, err := reg.Balance(ctx, "MLT"); err != nil {
			return fmt.Errorf("balance: %w", err)
		}
		if grow {
			if _, err := reg.AddPeerWithCapacity(ctx, 1<<20); err != nil {
				return fmt.Errorf("add peer: %w", err)
			}
		} else {
			// Balancing renames peers, so the departing peer is
			// chosen from the ring as it is now.
			peers, err := reg.Peers(ctx)
			if err != nil {
				return fmt.Errorf("peers: %w", err)
			}
			if err := reg.RemovePeer(ctx, peers[len(peers)-1].ID); err != nil {
				return fmt.Errorf("remove peer: %w", err)
			}
		}
		grow = !grow
		return nil
	}
	reader := &client{tgt: ov.target(0), racy: true, stream: e.gen.readerStream("churn/reader", e.sz.streamLen, 0.2, true)}
	return []*client{reader, w}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// churnAfter measures what only a durable overlay has: the on-disk
// cost per key after a final snapshot, crash recovery, and a cold
// restart whose catalogue must equal the acknowledged model exactly.
func churnAfter(ctx context.Context, e *env, ov overlay, cs []*client, out metrics) error {
	eo := ov.(*engineOverlay)
	reg := eo.reg
	want := slices.Clone(e.gen.m.sorted)
	for _, c := range cs {
		want = append(want, c.liveKeys()...)
	}
	slices.Sort(want)

	if _, err := reg.Replicate(ctx); err != nil {
		return err
	}
	bytes, err := dirBytes(eo.dir)
	if err != nil {
		return err
	}
	out.set("disk_bytes_per_key", "B", float64(bytes)/float64(len(want)), len(want))

	const crashes = 5
	var recoverMs []float64
	for i := 0; i < crashes; i++ {
		peers, err := reg.Peers(ctx)
		if err != nil {
			return err
		}
		victim := peers[(i*7+3)%len(peers)].ID
		start := time.Now()
		if err := reg.CrashPeer(ctx, victim); err != nil {
			return err
		}
		rep, err := reg.Recover(ctx)
		if err != nil {
			return err
		}
		recoverMs = append(recoverMs, float64(time.Since(start).Nanoseconds())/1e6)
		if rep.Lost != 0 {
			return wrongf("recover after crashing %s lost %d keys replicated before the crash", victim, rep.Lost)
		}
		if _, err := reg.Replicate(ctx); err != nil {
			return err
		}
	}
	out.set("recover_ms", "ms", median(recoverMs), crashes)
	if err := reg.Validate(ctx); err != nil {
		return wrongf("validate after recovery: %v", err)
	}

	if err := reg.Close(); err != nil {
		return err
	}
	start := time.Now()
	restarted, err := dlpt.Restart(eo.dir, dlpt.WithSeed(overlaySeed), dlpt.WithAlphabet(keys.LowerAlnum), dlpt.WithEngine(eo.kind))
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	eo.reg = restarted // the overlay's close now closes the restarted registry
	got, err := restarted.Services(ctx)
	if err != nil {
		return err
	}
	out.set("restart_s", "s", time.Since(start).Seconds(), 1)
	if !slices.Equal(got, want) {
		return wrongf("restart served %d services, the acknowledged model holds %d (or the sets differ)", len(got), len(want))
	}
	return nil
}

// daemonOverlay is a steward and two members, each its own in-process
// dlptd over a loopback listener.
type daemonOverlay struct {
	steward, m1, m2 *daemon.Daemon
}

// target 0 is the writer's daemon (member 1), target 1 the reader's
// (member 2).
func (o *daemonOverlay) target(i int) target {
	if i == 0 {
		return adminTarget{o.m1.Addr()}
	}
	return adminTarget{o.m2.Addr()}
}

func (o *daemonOverlay) validate(ctx context.Context) error {
	for _, d := range []*daemon.Daemon{o.steward, o.m1, o.m2} {
		if _, err := daemon.Admin(ctx, d.Addr(), &daemon.AdminRequest{Op: "validate"}); err != nil {
			return fmt.Errorf("daemon %s: %w", d.Addr(), err)
		}
	}
	return nil
}

func (o *daemonOverlay) close() error {
	var err error
	for _, d := range []*daemon.Daemon{o.m2, o.m1, o.steward} {
		if d != nil {
			err = errors.Join(err, d.Close())
		}
	}
	return err
}

// daemonConfig mirrors how dlptsim bench starts in-process daemons:
// fast probes, no periodic replication inside a run.
func daemonConfig(seed int64, bootstrap ...string) daemon.Config {
	return daemon.Config{
		Listen:          "127.0.0.1:0",
		Bootstrap:       bootstrap,
		Capacity:        64,
		Alphabet:        "lower_alnum",
		Seed:            seed,
		ProbeEvery:      daemon.Duration(50 * time.Millisecond),
		MissThreshold:   3,
		ReplicateEvery:  daemon.Duration(time.Hour),
		JoinTimeout:     daemon.Duration(15 * time.Second),
		ElectionTimeout: daemon.Duration(300 * time.Millisecond),
		ForwardRetry:    daemon.Duration(20 * time.Second),
	}
}

func startTrio() (*daemonOverlay, error) {
	nop := func(string, ...any) {}
	const base = overlaySeed // a zero daemon seed would mean "seed from the clock"
	ov := &daemonOverlay{}
	var err error
	if ov.steward, err = daemon.Start(daemonConfig(base), nop); err != nil {
		return nil, err
	}
	if ov.m1, err = daemon.Start(daemonConfig(base+1, ov.steward.Addr()), nop); err != nil {
		return nil, errors.Join(err, ov.close())
	}
	if ov.m2, err = daemon.Start(daemonConfig(base+2, ov.steward.Addr()), nop); err != nil {
		return nil, errors.Join(err, ov.close())
	}
	return ov, nil
}

// daemonBuilder starts the trio and preloads the catalogue through
// the steward, one admin call per key as an operator's tooling would.
// The daemons always run their own observability, so observed changes
// nothing here.
func daemonBuilder(ctx context.Context, e *env, _ bool) (overlay, error) {
	ov, err := startTrio()
	if err != nil {
		return nil, err
	}
	for _, k := range e.gen.corpus {
		if _, err := daemon.Admin(ctx, ov.steward.Addr(),
			&daemon.AdminRequest{Op: "register", Key: string(k), Value: endpoint}); err != nil {
			return nil, errors.Join(fmt.Errorf("preload %q: %w", k, err), ov.close())
		}
	}
	return ov, nil
}

func daemonClients(e *env, ov overlay) []*client {
	reader := &client{tgt: ov.target(1), racy: true,
		stream: e.gen.readerStream("daemon/reader", e.sz.streamLen, 0.1, false)}
	return []*client{writer(e, ov.target(0), "d"), reader}
}

// heapMB forces two collections — the second empties the sync.Pools
// the first only retired — and returns the live heap.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
