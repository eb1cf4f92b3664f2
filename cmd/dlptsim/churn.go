package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"dlpt"
	"dlpt/churn"
	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// runChurn soaks one engine under membership churn: a seeded mix of
// joins, graceful leaves, crashes, replication-backed recoveries and
// periodic balancing interleaved with a data workload, closed by a
// full invariant validation. Exit status reflects the validation, so
// CI can use it as a membership regression gate.
func runChurn(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("churn", flag.ContinueOnError)
	fs.SetOutput(w)
	engineName := fs.String("engine", "local", "execution engine: local, live or tcp")
	peers := fs.Int("peers", 32, "initial overlay size")
	ops := fs.Int("ops", 2000, "workload steps")
	seed := fs.Int64("seed", 1, "driver and overlay seed")
	strategy := fs.String("strategy", "MLT", "balancing strategy (MLT, KC, EqualLoad, Directory, NoLB)")
	nkeys := fs.Int("keys", 300, "service-key corpus size")
	capacity := fs.Int("capacity", 200, "per-peer capacity (initial and joining peers)")
	join := fs.Float64("join", 0.04, "per-step join probability")
	leave := fs.Float64("leave", 0.03, "per-step graceful-leave probability")
	crash := fs.Float64("crash", 0.02, "per-step crash probability")
	recoverRate := fs.Float64("recover", 0.02, "per-step explicit-recovery probability")
	replicateEvery := fs.Int("replicate-every", 64, "steps between replication ticks")
	balanceEvery := fs.Int("balance-every", 32, "steps between balancing rounds")
	persistDir := fs.String("persist", "", "persistence directory (durable snapshots + journal)")
	coldRestart := fs.Bool("cold-restart", false,
		"after the soak: kill every peer and restart from -persist, validating the recovered catalogue")
	maxWall := fs.Duration("max-wall", 0,
		"fail if the whole soak (including any cold restart) takes longer than this; 0 disables the gate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("churn: unexpected argument %q", fs.Arg(0))
	}
	switch {
	case !*coldRestart:
		fmt.Fprintf(w, "# churn soak: engine=%s peers=%d ops=%d strategy=%s seed=%d\n",
			*engineName, *peers, *ops, *strategy, *seed)
	case *persistDir == "":
		return fmt.Errorf("churn: -cold-restart needs -persist")
	default:
		fmt.Fprintf(w, "# cold-restart soak: engine=%s peers=%d ops=%d seed=%d dir=%s\n",
			*engineName, *peers, *ops, *seed, *persistDir)
	}

	// The cold-restart clock covers building and preloading the
	// overlay; the plain soak's covers the churn run only.
	start := time.Now()
	caps := make([]int, *peers)
	for i := range caps {
		caps[i] = *capacity
	}
	regOpts := []dlpt.Option{
		dlpt.WithSeed(*seed),
		dlpt.WithAlphabet(keys.LowerAlnum),
		dlpt.WithCapacities(caps),
		dlpt.WithEngine(dlpt.EngineKind(*engineName)),
	}
	if *persistDir != "" {
		regOpts = append(regOpts, dlpt.WithPersistence(*persistDir))
	}
	reg, err := dlpt.New(*peers, regOpts...)
	if err != nil {
		return err
	}
	defer reg.Close()

	ctx := context.Background()
	corpus := workload.GridCorpus(*nkeys)
	batch := make([]dlpt.Registration, len(corpus))
	keyNames := make([]string, len(corpus))
	for i, k := range corpus {
		batch[i] = dlpt.Registration{Name: string(k), Endpoint: "ep://" + string(k)}
		keyNames[i] = string(k)
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		return err
	}
	preload := time.Since(start)
	cfg := churn.Config{
		Seed:           *seed,
		Ops:            *ops,
		JoinRate:       *join,
		LeaveRate:      *leave,
		CrashRate:      *crash,
		RecoverRate:    *recoverRate,
		JoinCapacity:   *capacity,
		ReplicateEvery: *replicateEvery,
		BalanceEvery:   *balanceEvery,
		Strategy:       *strategy,
		Keys:           keyNames,
	}

	if *coldRestart {
		st, err := churn.RunColdRestart(ctx, reg, *persistDir, cfg, regOpts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "soak:    %+v\n", st.Soak)
		fmt.Fprintf(w, "kill:    %d peers crashed, remainder died abruptly\n", st.CrashedBeforeKill)
		fmt.Fprintf(w, "restart: %d/%d keys recovered from %s\n",
			st.Recovered, st.Declared, *persistDir)
		fmt.Fprintf(w, "phases:  preload=%v soak=%v kill=%v restart=%v\n", preload.Round(time.Millisecond),
			st.SoakWall.Round(time.Millisecond), st.KillWall.Round(time.Millisecond),
			st.RestartWall.Round(time.Millisecond))
		elapsed := time.Since(start)
		fmt.Fprintf(w, "# cold restart validated OK in %v\n", elapsed.Round(time.Millisecond))
		return gateWall(elapsed, *maxWall)
	}

	start = time.Now()
	st, err := churn.Run(ctx, reg.Engine(), cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	ms, err := reg.MembershipStats(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "data:       %d registers, %d unregisters, %d discoveries (%d found)\n",
		st.Registers, st.Unregisters, st.Discoveries, st.Found)
	fmt.Fprintf(w, "membership: %d joins, %d leaves, %d crashes, %d recoveries\n",
		st.Joins, st.Leaves, st.Crashes, st.Recoveries)
	fmt.Fprintf(w, "replication: %d ticks shipping %d snapshots; %d restored, %d lost\n",
		st.Replications, st.ReplicatedNodes, st.RestoredNodes, st.LostNodes)
	fmt.Fprintf(w, "balancing:  %d rounds, %d boundary moves (%s)\n",
		st.BalanceRounds, st.BalanceMoves, *strategy)
	fmt.Fprintf(w, "final:      %d peers, %d keys, engine counters %+v\n",
		st.FinalPeers, st.FinalKeys, ms)
	fmt.Fprintf(w, "# validated OK in %v\n", elapsed.Round(time.Millisecond))
	return gateWall(elapsed, *maxWall)
}

// gateWall turns a blown wall-time budget into a non-zero exit — the
// CI gate for soaks whose cost must stay bounded (the 1M-key cold
// restart in particular: snapshot encode, mmap load and journal
// replay all sit on this path).
func gateWall(elapsed, max time.Duration) error {
	if max > 0 && elapsed > max {
		return fmt.Errorf("churn: wall time %v exceeded the -max-wall budget %v",
			elapsed.Round(time.Millisecond), max)
	}
	return nil
}
