package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"dlpt"
	"dlpt/engine"
	"dlpt/internal/daemon"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/workload"
)

// benchResult is one engine's measurements, the unit of the
// machine-readable benchmark output. Allocation counters are
// process-wide runtime.MemStats deltas over the timed section: on the
// concurrent engines they include background goroutine allocations,
// so they track trends, not exact per-op attribution.
type benchResult struct {
	Engine               string  `json:"engine"`
	RegisterNsPerKey     int64   `json:"register_ns_per_key"`
	RegisterAllocsPerKey int64   `json:"register_allocs_per_key"`
	RegisterBytesPerKey  int64   `json:"register_bytes_per_key"`
	DiscoverNsPerOp      int64   `json:"discover_ns_per_op"`
	DiscoverAllocsPerOp  int64   `json:"discover_allocs_per_op"`
	DiscoverBytesPerOp   int64   `json:"discover_bytes_per_op"`
	RangeNsPerOp         int64   `json:"range_ns_per_op"`
	RangeAllocsPerOp     int64   `json:"range_allocs_per_op"`
	RangeBytesPerOp      int64   `json:"range_bytes_per_op"`
	LogicalHopsPerOp     float64 `json:"logical_hops_per_op"`
	PhysicalHopsPerOp    float64 `json:"physical_hops_per_op"`

	// Streaming-query metrics, measured on the large keyspace
	// (LimitKeys declared keys): time to the first key of an
	// unlimited streaming completion (early exit after one result),
	// a drained limit-10 completion, and the node visits of the
	// limited walk versus the full walk — the limit pushdown the
	// streaming API exists for.
	FirstResultNsPerOp     int64   `json:"first_result_ns_per_op"`
	LimitCompleteNsPerOp   int64   `json:"limit_complete_ns_per_op"`
	LimitNodesVisitedPerOp float64 `json:"limit_nodes_visited_per_op"`
	FullNodesVisited       int64   `json:"full_nodes_visited"`

	// Replication metrics: the replica-transfer messages one
	// topology change costs on average (successor re-homing — the
	// churn-proportional replication cost), and the latency of one
	// crash-recovery pass (restore from successor replicas plus the
	// canonical anti-entropy rebuild).
	ReplicaTransferMsgsPerTopologyChange float64 `json:"replica_transfer_msgs_per_topology_change"`
	RecoverNsPerOp                       int64   `json:"recover_ns_per_op"`

	// TraceOverheadNsPerOp is the per-discovery latency cost of
	// enabling WithObservability (span recording plus counters),
	// measured by re-running the discovery workload instrumented and
	// diffing against the untraced run. Floored at zero: a negative
	// delta is scheduler noise, not a speedup.
	TraceOverheadNsPerOp int64 `json:"trace_overhead_ns_per_op"`
}

// benchReport is the whole run: workload scale, environment, one
// result per engine. The schema is the perf trajectory consumed by
// tooling comparing BENCH_engines.json across commits.
type benchReport struct {
	Peers       int `json:"peers"`
	Keys        int `json:"keys"`
	Discoveries int `json:"discoveries"`
	Ranges      int `json:"ranges"`
	// LimitKeys is the keyspace of the streaming limit-pushdown
	// measurements (first_result / limit_complete).
	LimitKeys int           `json:"limit_keys"`
	Seed      int64         `json:"seed"`
	GoVersion string        `json:"go_version"`
	Results   []benchResult `json:"results"`

	// Daemon deployment metrics (engine-independent, measured on
	// in-process dlptd daemons over real loopback sockets): the
	// latency of one JOIN/HELLO bootstrap handshake including the
	// mirror installation, and the wall-clock from a member's abrupt
	// death to the steward's maintenance loop having crashed it out
	// and recovered its nodes (probe-timer dominated by design).
	JoinHandshakeNsPerOp int64 `json:"join_handshake_ns_per_op"`
	RedialRecoveryMs     int64 `json:"redial_recovery_ms"`
	// StewardFailoverMs is the wall-clock from the steward's abrupt
	// death to the first write acknowledged by an elected successor
	// (suspicion, epoch-fenced election, epoch-open barrier, resumed
	// origination), measured on a 3-daemon overlay.
	StewardFailoverMs int64 `json:"steward_failover_ms"`

	// Durability metrics, measured on a persistent live-engine overlay
	// (the snapshot path is engine-independent: every engine captures
	// under its cluster lock and encodes+fsyncs outside it).
	// SnapshotBytesPerKey is the on-disk snapshot cost of the 10k-key
	// catalogue, asserted under snapshotBytesPerKeyCeiling at
	// measurement time. SnapshotWriteStallNs is the time the
	// cluster write lock is held per snapshot (capture + journal
	// rotation, NOT encode or fsync) on the 100k-key catalogue;
	// SnapshotWriteStallNs10k is the 10k-key reading the flatness
	// assertion compares it against — O(1) capture means the two stay
	// within noise of each other while catalogue size grows 10x.
	// ColdRestartMs is a full dlpt.Restart (snapshot mmap + decode +
	// journal replay + overlay rebuild) of the 100k-key directory.
	SnapshotBytesPerKey     int64 `json:"snapshot_bytes_per_key"`
	SnapshotWriteStallNs    int64 `json:"snapshot_write_stall_ns"`
	SnapshotWriteStallNs10k int64 `json:"snapshot_write_stall_ns_10k"`
	ColdRestartMs           int64 `json:"cold_restart_ms"`
}

// regressionFactor is the perf gate: a latency metric more than this
// factor above the committed baseline fails the run.
const regressionFactor = 2.0

// regressionFloorNs absorbs scheduler jitter on microsecond-scale
// metrics: a metric must also exceed the baseline by this much in
// absolute terms to count as a regression.
const regressionFloorNs = 2000

// runBench measures the identical register/discover/range workload on
// every engine and reports the results as JSON (default, written to
// -out) or as the human-readable table of the engines experiment.
// With -check it additionally diffs the run against a committed
// baseline and fails on any >2x latency regression (the CI perf
// gate).
func runBench(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(w)
	jsonOut := fs.Bool("json", true, "write machine-readable JSON to -out")
	out := fs.String("out", "BENCH_engines.json", "JSON output path (- for stdout)")
	check := fs.String("check", "", "baseline JSON to diff against; fail on >2x ns/op regression")
	quick := fs.Bool("quick", false, "reduced scale")
	seed := fs.Int64("seed", 1, "base random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("bench: unexpected argument %q", fs.Arg(0))
	}
	if !*jsonOut && *check == "" {
		return runEngines(*quick, *seed, w)
	}

	// Load the baseline before anything is written: with the default
	// -out, `bench -check BENCH_engines.json` would otherwise
	// overwrite the baseline first and gate the run against itself.
	var baseline *benchReport
	if *check != "" {
		buf, err := os.ReadFile(*check)
		if err != nil {
			return fmt.Errorf("bench: read baseline: %w", err)
		}
		baseline = &benchReport{}
		if err := json.Unmarshal(buf, baseline); err != nil {
			return fmt.Errorf("bench: parse baseline %s: %w", *check, err)
		}
	}

	rep, err := measureEngines(*quick, *seed)
	if err != nil {
		return err
	}
	if *jsonOut {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if *out == "-" {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		} else {
			if err := os.WriteFile(*out, buf, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "# wrote %s (%d engines)\n", *out, len(rep.Results))
		}
	}
	if baseline != nil {
		return checkBaseline(rep, baseline, *check, w)
	}
	return nil
}

// checkBaseline diffs rep against the pre-loaded committed baseline
// and returns an error naming every latency metric that regressed
// more than regressionFactor (the CI perf gate).
func checkBaseline(rep *benchReport, base *benchReport, path string, w io.Writer) error {
	current := make(map[string]benchResult, len(rep.Results))
	for _, r := range rep.Results {
		current[r.Engine] = r
	}
	var regressions []string
	for _, b := range base.Results {
		cur, ok := current[b.Engine]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: engine missing from this run", b.Engine))
			continue
		}
		for _, m := range []struct {
			name      string
			base, cur int64
		}{
			{"register_ns_per_key", b.RegisterNsPerKey, cur.RegisterNsPerKey},
			{"discover_ns_per_op", b.DiscoverNsPerOp, cur.DiscoverNsPerOp},
			{"range_ns_per_op", b.RangeNsPerOp, cur.RangeNsPerOp},
			{"first_result_ns_per_op", b.FirstResultNsPerOp, cur.FirstResultNsPerOp},
			{"limit_complete_ns_per_op", b.LimitCompleteNsPerOp, cur.LimitCompleteNsPerOp},
			{"recover_ns_per_op", b.RecoverNsPerOp, cur.RecoverNsPerOp},
		} {
			if m.base == 0 {
				continue // metric absent from an older baseline schema
			}
			ratio := float64(m.cur) / float64(m.base)
			verdict := "ok"
			if float64(m.cur) > regressionFactor*float64(m.base) &&
				m.cur-m.base > regressionFloorNs {
				verdict = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s %s: %d -> %d ns (%.2fx > %.1fx limit)",
						b.Engine, m.name, m.base, m.cur, ratio, regressionFactor))
			}
			fmt.Fprintf(w, "# perf-gate %-5s %-20s %8d -> %8d ns  %.2fx  %s\n",
				b.Engine, m.name, m.base, m.cur, ratio, verdict)
		}
	}
	// Report-level durability metrics gate the same way (bytes and
	// milliseconds use the same factor; the absolute floor absorbs
	// jitter on the small readings).
	for _, m := range []struct {
		name      string
		base, cur int64
		floor     int64 // absolute slack in the metric's own unit
	}{
		{"snapshot_bytes_per_key", base.SnapshotBytesPerKey, rep.SnapshotBytesPerKey, 2},
		{"snapshot_write_stall_ns", base.SnapshotWriteStallNs, rep.SnapshotWriteStallNs, regressionFloorNs},
		{"cold_restart_ms", base.ColdRestartMs, rep.ColdRestartMs, 250},
	} {
		if m.base == 0 {
			continue // metric absent from an older baseline schema
		}
		ratio := float64(m.cur) / float64(m.base)
		verdict := "ok"
		if float64(m.cur) > regressionFactor*float64(m.base) &&
			m.cur-m.base > m.floor {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d (%.2fx > %.1fx limit)",
					m.name, m.base, m.cur, ratio, regressionFactor))
		}
		fmt.Fprintf(w, "# perf-gate %-5s %-20s %8d -> %8d     %.2fx  %s\n",
			"all", m.name, m.base, m.cur, ratio, verdict)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench: perf gate failed against %s:\n  %s",
			path, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "# perf gate passed against %s\n", path)
	return nil
}

// measureEngines runs the comparison workload of the engines
// experiment and returns structured timings.
func measureEngines(quick bool, seed int64) (*benchReport, error) {
	peers, nkeys, queries := 32, 400, 2000
	limitKeys := 10000
	if quick {
		peers, nkeys, queries = 8, 120, 300
		limitKeys = 1500
	}
	corpus := workload.GridCorpus(nkeys)
	batch := make([]dlpt.Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = dlpt.Registration{Name: string(k), Endpoint: "ep://" + string(k)}
	}
	rep := &benchReport{
		Peers:       peers,
		Keys:        nkeys,
		Discoveries: queries,
		Ranges:      queries / 10,
		LimitKeys:   limitKeys,
		Seed:        seed,
		GoVersion:   runtime.Version(),
	}
	ctx := context.Background()
	for _, kind := range []dlpt.EngineKind{dlpt.EngineLocal, dlpt.EngineLive, dlpt.EngineTCP} {
		reg, err := dlpt.New(peers,
			dlpt.WithSeed(seed),
			dlpt.WithAlphabet(keys.LowerAlnum),
			dlpt.WithEngine(kind))
		if err != nil {
			return nil, err
		}
		res, err := measureOne(ctx, reg, kind, batch, corpus, queries)
		reg.Close()
		if err != nil {
			return nil, err
		}
		if err := measureLimit(ctx, kind, seed, peers, limitKeys, &res); err != nil {
			return nil, err
		}
		if err := measureReplication(ctx, kind, seed, peers, nkeys, quick, &res); err != nil {
			return nil, err
		}
		if err := measureTraceOverhead(ctx, kind, seed, peers, batch, corpus, queries, &res); err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
	}
	if err := measureDaemon(quick, seed, rep); err != nil {
		return nil, err
	}
	if err := measureSnapshot(ctx, quick, seed, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// snapshotBytesPerKeyCeiling is the most a snapshot may cost per key
// on the 10k-key corpus (the verbose encoding LOUDS replaced cost 14).
// It is asserted at measurement time (snapshot sizes are deterministic
// — no noise allowance needed), so a codec regression fails the bench
// even before the baseline diff runs.
const snapshotBytesPerKeyCeiling = 3.0

// measureSnapshot runs the durability workload on a persistent
// live-engine overlay: per-key snapshot cost at 10k keys, the
// lock-held snapshot stall at 10k and again at 100k keys (asserted
// flat: capture is O(peers), not O(catalogue)), and a timed cold
// restart of the 100k-key directory.
func measureSnapshot(ctx context.Context, quick bool, seed int64, rep *benchReport) error {
	smallKeys, bigKeys := 10_000, 100_000
	if quick {
		smallKeys, bigKeys = 1_500, 15_000
	}
	dir, err := os.MkdirTemp("", "dlpt-bench-snap")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	reg, err := dlpt.New(16,
		dlpt.WithSeed(seed),
		dlpt.WithAlphabet(keys.LowerAlnum),
		dlpt.WithEngine(dlpt.EngineLive),
		dlpt.WithPersistence(dir),
		dlpt.WithObservability(dlpt.NewObservability()))
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			reg.Close()
		}
	}()

	// Endpoints are shared, as in the replication workload: the codec
	// deduplicates the value table, so the per-key cost measures the
	// key structure the LOUDS trie compresses (unique per-key values
	// would dominate whatever the codec does with the keys).
	corpus := workload.GridCorpus(bigKeys)
	register := func(lo, hi int) error {
		batch := make([]dlpt.Registration, 0, hi-lo)
		for _, k := range corpus[lo:hi] {
			batch = append(batch, dlpt.Registration{Name: string(k), Endpoint: "ep"})
		}
		return reg.RegisterBatch(ctx, batch)
	}
	// minStall replicates a few times and keeps the smallest lock-held
	// stall the gauge saw: scheduler noise only ever adds to the
	// reading, so the minimum is the right statistic for a flatness
	// comparison.
	minStall := func(reps int) (int64, error) {
		best := int64(-1)
		for i := 0; i < reps; i++ {
			if _, err := reg.Replicate(ctx); err != nil {
				return 0, err
			}
			ns := int64(reg.ObsSnapshot().Get(obs.SeriesSnapshotStall) * 1e9)
			if best < 0 || ns < best {
				best = ns
			}
		}
		return best, nil
	}

	if err := register(0, smallKeys); err != nil {
		return err
	}
	if rep.SnapshotWriteStallNs10k, err = minStall(5); err != nil {
		return err
	}
	snap := reg.ObsSnapshot()
	bytes := int64(snap.Get(obs.SeriesSnapshotBytes))
	nkeys := int64(snap.Get(obs.SeriesSnapshotKeys))
	if nkeys != int64(smallKeys) {
		return fmt.Errorf("bench: snapshot declared %d keys, registered %d", nkeys, smallKeys)
	}
	rep.SnapshotBytesPerKey = bytes / nkeys

	// The ceiling is a 10k-key property (quick mode's short corpus has
	// less prefix structure to compress — report, don't assert).
	if perKey := float64(bytes) / float64(nkeys); !quick && perKey > snapshotBytesPerKeyCeiling {
		return fmt.Errorf("bench: snapshot costs %.2f B/key on %d keys (ceiling %.1f)",
			perKey, smallKeys, snapshotBytesPerKeyCeiling)
	}

	if err := register(smallKeys, bigKeys); err != nil {
		return err
	}
	if rep.SnapshotWriteStallNs, err = minStall(5); err != nil {
		return err
	}
	// Flatness: the lock-held window must not scale with the
	// catalogue. A 10x-bigger catalogue gets a generous 4x noise
	// allowance plus an absolute floor — an O(keys) capture would blow
	// through both.
	if rep.SnapshotWriteStallNs > 4*rep.SnapshotWriteStallNs10k &&
		rep.SnapshotWriteStallNs-rep.SnapshotWriteStallNs10k > 2_000_000 {
		return fmt.Errorf("bench: snapshot write stall grew with the catalogue: %d ns at %d keys vs %d ns at %d keys",
			rep.SnapshotWriteStallNs, bigKeys, rep.SnapshotWriteStallNs10k, smallKeys)
	}

	if err := reg.Close(); err != nil {
		return err
	}
	closed = true
	start := time.Now()
	restarted, err := dlpt.Restart(dir,
		dlpt.WithSeed(seed),
		dlpt.WithEngine(dlpt.EngineLive))
	if err != nil {
		return err
	}
	rep.ColdRestartMs = time.Since(start).Milliseconds()
	defer restarted.Close()
	recovered, err := restarted.Services(ctx)
	if err != nil {
		return err
	}
	if len(recovered) != bigKeys {
		return fmt.Errorf("bench: cold restart recovered %d of %d keys", len(recovered), bigKeys)
	}
	return nil
}

// measureDaemon times the cross-process deployment layer on
// in-process daemons: the bootstrap join handshake (dial, JOIN/HELLO
// negotiation, mirror install), the redial-driven crash recovery
// (member dies abruptly; the steward's maintenance loop probes it
// out, recovers from replicas, and the survivors validate), and the
// steward failover (steward dies abruptly; the survivors elect and
// writes resume under the new epoch).
func measureDaemon(quick bool, seed int64, rep *benchReport) error {
	nop := func(string, ...any) {}
	cfg := func(s int64, bootstrap ...string) daemon.Config {
		return daemon.Config{
			Listen:          "127.0.0.1:0",
			Bootstrap:       bootstrap,
			Capacity:        8,
			Alphabet:        "lower_alnum",
			Seed:            s,
			ProbeEvery:      daemon.Duration(50 * time.Millisecond),
			MissThreshold:   3,
			ReplicateEvery:  daemon.Duration(time.Hour),
			JoinTimeout:     daemon.Duration(15 * time.Second),
			ElectionTimeout: daemon.Duration(300 * time.Millisecond),
			ForwardRetry:    daemon.Duration(20 * time.Second),
		}
	}
	steward, err := daemon.Start(cfg(seed), nop)
	if err != nil {
		return err
	}
	defer steward.Close()

	joins := 8
	if quick {
		joins = 3
	}
	var total time.Duration
	for i := 0; i < joins; i++ {
		start := time.Now()
		m, err := daemon.Start(cfg(seed+int64(i)+1, steward.Addr()), nop)
		if err != nil {
			return fmt.Errorf("bench: join handshake: %w", err)
		}
		total += time.Since(start)
		if err := m.Close(); err != nil {
			return err
		}
	}
	rep.JoinHandshakeNsPerOp = total.Nanoseconds() / int64(joins)

	// Redial recovery: a 3-daemon overlay with replicated state loses
	// one member to an abrupt stop; measure until the steward's mirror
	// is whole again (member crashed out, nodes recovered, validation
	// clean).
	m1, err := daemon.Start(cfg(seed+100, steward.Addr()), nop)
	if err != nil {
		return err
	}
	defer m1.Close()
	m2, err := daemon.Start(cfg(seed+101, steward.Addr()), nop)
	if err != nil {
		return err
	}
	defer m2.Close()
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		if _, err := daemon.Admin(ctx, steward.Addr(),
			&daemon.AdminRequest{Op: "register", Key: fmt.Sprintf("bench%02d", i), Value: "ep"}); err != nil {
			return err
		}
	}
	if err := steward.ReplicateNow(); err != nil {
		return err
	}
	m2.Cluster().Stop() // abrupt death: no graceful leave
	start := time.Now()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if steward.MemberCount() == 2 && steward.Cluster().Validate() == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: redial recovery never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep.RedialRecoveryMs = time.Since(start).Milliseconds()

	// Steward failover: rebuild a 3-daemon overlay (quorum needs two
	// surviving voters over three known members), replicate so the
	// steward's nodes survive its death, kill the steward abruptly,
	// and measure until a survivor has won the election and
	// acknowledged a write under the new epoch.
	m3, err := daemon.Start(cfg(seed+102, steward.Addr()), nop)
	if err != nil {
		return err
	}
	defer m3.Close()
	if err := steward.ReplicateNow(); err != nil {
		return err
	}
	steward.Cluster().Stop() // abrupt death: no graceful leave
	start = time.Now()
	deadline = time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		var acked bool
		for _, d := range []*daemon.Daemon{m1, m3} {
			if !d.IsSteward() {
				continue
			}
			key := fmt.Sprintf("failover%02d", i%100)
			if _, err := daemon.Admin(ctx, d.Addr(),
				&daemon.AdminRequest{Op: "register", Key: key, Value: "ep"}); err == nil {
				acked = true
			}
			break
		}
		if acked {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: steward failover never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.StewardFailoverMs = time.Since(start).Milliseconds()
	return nil
}

// measureReplication runs the fault-tolerance workload on a fresh
// overlay: a replicated corpus, a join/leave churn loop whose
// successor re-homing traffic yields the transfer cost per topology
// change, and timed replicate→crash→recover cycles.
func measureReplication(ctx context.Context, kind dlpt.EngineKind, seed int64,
	peers, nkeys int, quick bool, res *benchResult) error {

	// The overlay runs instrumented so the transfer-cost metric reads
	// from single consistent obs snapshots (one collector pass each)
	// instead of stitching together counters from separate
	// MembershipStats/PoolStats calls that can interleave with churn.
	reg, err := dlpt.New(peers,
		dlpt.WithSeed(seed),
		dlpt.WithAlphabet(keys.LowerAlnum),
		dlpt.WithEngine(kind),
		dlpt.WithObservability(dlpt.NewObservability()))
	if err != nil {
		return err
	}
	defer reg.Close()
	corpus := workload.GridCorpus(nkeys)
	batch := make([]dlpt.Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = dlpt.Registration{Name: string(k), Endpoint: "ep"}
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		return err
	}
	if _, err := reg.Replicate(ctx); err != nil {
		return err
	}

	churnRounds, recReps := 16, 16
	if quick {
		churnRounds, recReps = 6, 6
	}
	base := reg.ObsSnapshot()
	for i := 0; i < churnRounds; i++ {
		id, err := reg.AddPeerWithCapacity(ctx, 1<<20)
		if err != nil {
			return err
		}
		if err := reg.RemovePeer(ctx, id); err != nil {
			return err
		}
	}
	snap := reg.ObsSnapshot()
	changes := float64(2 * churnRounds) // one join + one leave per round
	res.ReplicaTransferMsgsPerTopologyChange =
		(snap.Get(obs.SeriesReplicaTransfers) - base.Get(obs.SeriesReplicaTransfers)) / changes

	runtime.GC()
	var total time.Duration
	for i := 0; i < recReps; i++ {
		id, err := reg.AddPeerWithCapacity(ctx, 1<<20)
		if err != nil {
			return err
		}
		if _, err := reg.Replicate(ctx); err != nil {
			return err
		}
		if err := reg.CrashPeer(ctx, id); err != nil {
			return err
		}
		start := time.Now()
		if _, err := reg.Recover(ctx); err != nil {
			return err
		}
		total += time.Since(start)
	}
	res.RecoverNsPerOp = total.Nanoseconds() / int64(recReps)
	return nil
}

// measureTraceOverhead re-runs the discovery workload on an overlay
// instrumented with WithObservability and reports the per-op latency
// delta against the untraced run already in res.DiscoverNsPerOp —
// the cost of span recording plus metric counters on the hot path.
func measureTraceOverhead(ctx context.Context, kind dlpt.EngineKind, seed int64,
	peers int, batch []dlpt.Registration, corpus []keys.Key, queries int, res *benchResult) error {

	reg, err := dlpt.New(peers,
		dlpt.WithSeed(seed),
		dlpt.WithAlphabet(keys.LowerAlnum),
		dlpt.WithEngine(kind),
		dlpt.WithObservability(dlpt.NewObservability()))
	if err != nil {
		return err
	}
	defer reg.Close()
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < queries; i++ {
		if _, ok, err := reg.Discover(ctx, string(corpus[i%len(corpus)])); err != nil || !ok {
			return fmt.Errorf("%s: traced discover %q: ok=%v err=%v",
				kind, corpus[i%len(corpus)], ok, err)
		}
	}
	traced := time.Since(start).Nanoseconds() / int64(queries)
	if d := traced - res.DiscoverNsPerOp; d > 0 {
		res.TraceOverheadNsPerOp = d
	}
	return nil
}

// measureLimit runs the large-keyspace limit-pushdown workload on a
// fresh overlay: time-to-first-result of an unlimited streaming
// completion (early exit after one key) and a drained limit-10
// completion, plus the node-visit counts that make the pushdown
// visible next to the full walk's.
func measureLimit(ctx context.Context, kind dlpt.EngineKind, seed int64,
	peers, limitKeys int, res *benchResult) error {

	reg, err := dlpt.New(peers,
		dlpt.WithSeed(seed),
		dlpt.WithAlphabet(keys.LowerAlnum),
		dlpt.WithEngine(kind))
	if err != nil {
		return err
	}
	defer reg.Close()
	corpus := workload.GridCorpus(limitKeys)
	batch := make([]dlpt.Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = dlpt.Registration{Name: string(k), Endpoint: "ep"}
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		return err
	}
	eng := reg.Engine()

	full, err := engine.CollectQuery(ctx, eng, engine.Query{Kind: engine.QueryComplete})
	if err != nil {
		return err
	}
	if len(full.Keys) != limitKeys {
		return fmt.Errorf("%s: full streaming walk yielded %d of %d keys",
			kind, len(full.Keys), limitKeys)
	}
	fullStream, err := eng.Query(ctx, engine.Query{Kind: engine.QueryComplete})
	if err != nil {
		return err
	}
	for {
		if _, ok := fullStream.Next(); !ok {
			break
		}
	}
	res.FullNodesVisited = int64(fullStream.Stats().NodesVisited)
	fullStream.Close()

	// The registration and full-drain phases above leave the heap near
	// a collection trigger; collect before each timed loop so a GC
	// pause does not land inside it (these metrics feed the 2x gate
	// and the loops are short). reps amortizes the rest.
	const reps = 200
	runtime.GC()
	start := time.Now()
	for i := 0; i < reps; i++ {
		s, err := eng.Query(ctx, engine.Query{Kind: engine.QueryComplete})
		if err != nil {
			return err
		}
		if _, ok := s.Next(); !ok {
			s.Close()
			return fmt.Errorf("%s: streaming completion yielded no first result", kind)
		}
		s.Close() // early exit: the traversal behind the rest is cancelled
	}
	res.FirstResultNsPerOp = time.Since(start).Nanoseconds() / reps

	var visited int64
	runtime.GC()
	start = time.Now()
	for i := 0; i < reps; i++ {
		s, err := eng.Query(ctx, engine.Query{Kind: engine.QueryComplete, Limit: 10})
		if err != nil {
			return err
		}
		n := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
		if err := s.Err(); err != nil {
			s.Close()
			return err
		}
		visited += int64(s.Stats().NodesVisited)
		s.Close()
		if n != 10 {
			return fmt.Errorf("%s: limit-10 completion yielded %d keys", kind, n)
		}
	}
	res.LimitCompleteNsPerOp = time.Since(start).Nanoseconds() / reps
	res.LimitNodesVisitedPerOp = float64(visited) / float64(reps)
	return nil
}

// memCounters collects and reads the process-wide cumulative
// allocation counters. The collection isolates the timed phases from
// each other: without it a phase inherits the previous phase's GC
// trigger state, and a low-allocation phase (pooled TCP discovery)
// hands the next phase a near-trigger heap that taxes it with the
// collections the earlier phase banked.
func memCounters() (mallocs, bytes uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func measureOne(ctx context.Context, reg *dlpt.Registry, kind dlpt.EngineKind,
	batch []dlpt.Registration, corpus []keys.Key, queries int) (benchResult, error) {
	var out benchResult
	out.Engine = string(kind)

	m0, b0 := memCounters()
	start := time.Now()
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		return out, err
	}
	out.RegisterNsPerKey = time.Since(start).Nanoseconds() / int64(len(batch))
	m1, b1 := memCounters()
	out.RegisterAllocsPerKey = int64(m1-m0) / int64(len(batch))
	out.RegisterBytesPerKey = int64(b1-b0) / int64(len(batch))

	var logical, physical int
	m0, b0 = m1, b1 // the end-of-phase read already collected
	start = time.Now()
	for i := 0; i < queries; i++ {
		svc, ok, err := reg.Discover(ctx, string(corpus[i%len(corpus)]))
		if err != nil || !ok {
			return out, fmt.Errorf("%s: discover %q: ok=%v err=%v",
				kind, corpus[i%len(corpus)], ok, err)
		}
		logical += svc.LogicalHops
		physical += svc.PhysicalHops
	}
	out.DiscoverNsPerOp = time.Since(start).Nanoseconds() / int64(queries)
	m1, b1 = memCounters()
	out.DiscoverAllocsPerOp = int64(m1-m0) / int64(queries)
	out.DiscoverBytesPerOp = int64(b1-b0) / int64(queries)
	out.LogicalHopsPerOp = float64(logical) / float64(queries)
	out.PhysicalHopsPerOp = float64(physical) / float64(queries)

	ranges := queries / 10
	m0, b0 = m1, b1
	start = time.Now()
	for i := 0; i < ranges; i++ {
		if _, err := reg.Range(ctx, "pd", "pz", 0); err != nil {
			return out, err
		}
	}
	out.RangeNsPerOp = time.Since(start).Nanoseconds() / int64(ranges)
	m1, b1 = memCounters()
	out.RangeAllocsPerOp = int64(m1-m0) / int64(ranges)
	out.RangeBytesPerOp = int64(b1-b0) / int64(ranges)
	return out, nil
}
