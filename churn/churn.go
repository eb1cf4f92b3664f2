// Package churn drives a DLPT overlay through sustained membership
// churn — peer joins, graceful leaves, crashes and replication-backed
// recoveries — interleaved with a register/discover/unregister data
// workload and a periodic load-balancing step, over any execution
// engine. It is the operational counterpart of the paper's dynamic
// experiments (RR-6557 Section 4): the tree must survive and stay
// balanced on a changing ring of peers, not just on the frozen
// memberships the deployment engines started with.
//
// Run drives keys through a Registry-level workload, RunDirectory
// drives multi-attribute resources through a Directory, and both
// share one membership loop (joins, leaves, crashes, recoveries,
// replication and balancing ticks). RunColdRestart soaks a durable
// overlay with Run, kills every peer and restarts it from disk.
//
// Both workloads are deterministic given a seed on the sequential
// engine: identical configurations replay identical operation
// sequences, which the differential tests exploit to require
// identical surviving catalogues across engines.
package churn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"dlpt/engine"
)

// minPeers floors the overlay size: leaves and crashes are skipped at
// or below it (the smallest crashable overlay).
const minPeers = 2

// Config parameterizes one churn run.
type Config struct {
	// Seed fixes the driver's randomness (operation mix, victims,
	// key choice).
	Seed int64
	// Ops is the number of workload steps to run.
	Ops int

	// JoinRate, LeaveRate, CrashRate and RecoverRate are per-step
	// probabilities of the corresponding membership event, each in
	// [0, 1]; the remainder of the probability mass is data
	// operations. Recoveries also happen implicitly: the driver
	// repairs the tree before any mutation, since inserting into a
	// degraded tree is undefined (see engine.Engine.CrashPeer).
	JoinRate, LeaveRate, CrashRate, RecoverRate float64

	// JoinCapacity is the capacity of joining peers (default 1<<20).
	JoinCapacity int

	// ReplicateEvery triggers a replication tick every that many
	// steps (default 64; <0 disables).
	ReplicateEvery int
	// BalanceEvery ends a time unit and runs one round of Strategy
	// every that many steps (default 32; <0 disables).
	BalanceEvery int
	// Strategy names the balancing strategy: "MLT" (default), "KC",
	// "EqualLoad", "Directory" or "NoLB".
	Strategy string

	// Keys is the service-key corpus Run's data operations draw
	// from. Run requires it non-empty; RunDirectory ignores it.
	Keys []string
}

// Stats reports what one churn run did.
type Stats struct {
	Ops         int
	Registers   int
	Unregisters int
	Discoveries int
	// Found counts discoveries that returned the key. Degraded
	// phases (crash before recovery) legitimately miss keys.
	Found int

	Joins      int
	Leaves     int
	Crashes    int
	Recoveries int

	Replications    int
	ReplicatedNodes int
	RestoredNodes   int
	LostNodes       int

	BalanceRounds int
	BalanceMoves  int

	// FinalPeers and FinalKeys describe the overlay after the run
	// (post final recovery and validation).
	FinalPeers int
	FinalKeys  int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Ops <= 0 {
		return out, errors.New("churn: Ops must be positive")
	}
	for _, r := range []float64{out.JoinRate, out.LeaveRate, out.CrashRate, out.RecoverRate} {
		if !(r >= 0 && r <= 1) { // written so that NaN fails too
			return out, fmt.Errorf("churn: membership rate %v outside [0, 1]", r)
		}
	}
	if r := out.JoinRate + out.LeaveRate + out.CrashRate + out.RecoverRate; r > 1 {
		return out, fmt.Errorf("churn: membership rates sum to %v > 1", r)
	}
	if out.JoinCapacity == 0 {
		out.JoinCapacity = 1 << 20
	}
	if out.ReplicateEvery == 0 {
		out.ReplicateEvery = 64
	}
	if out.BalanceEvery == 0 {
		out.BalanceEvery = 32
	}
	if out.Strategy == "" {
		out.Strategy = "MLT"
	}
	return out, nil
}

// drive runs the membership half of a churn run over eng: every step
// rolls one of the join, leave, crash and recover bands, or hands the
// step to data, which draws from r after the roll and calls repair
// before anything undefined on a degraded tree. recovered, when set,
// sees every recovery report right after the tree is repaired. The
// tree is repaired once more at the end.
func drive(ctx context.Context, eng engine.Engine, cfg Config, st *Stats,
	data func(i int, r *rand.Rand, repair func() error) error,
	recovered func(engine.RecoveryReport) error) error {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	var ids []string
	// peerIDs (re-)reads the peer listing: at the start, and after
	// balancing renames.
	peerIDs := func() error {
		infos, err := eng.Peers(ctx)
		if err != nil {
			return err
		}
		ids = ids[:0]
		for _, p := range infos {
			ids = append(ids, p.ID)
		}
		return nil
	}
	if err := peerIDs(); err != nil {
		return err
	}

	degraded := false
	recoverNow := func() error {
		rep, err := eng.Recover(ctx)
		if err != nil {
			return err
		}
		st.Recoveries++
		st.RestoredNodes += rep.Restored
		st.LostNodes += rep.Lost
		degraded = false
		if recovered == nil {
			return nil
		}
		return recovered(rep)
	}
	// repair runs before operations that are undefined on a degraded
	// tree (mutations, replication ticks, balancing).
	repair := func() error {
		if !degraded {
			return nil
		}
		return recoverNow()
	}

	for i := 0; i < cfg.Ops; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.Ops++
		if cfg.ReplicateEvery > 0 && i%cfg.ReplicateEvery == cfg.ReplicateEvery-1 {
			if err := repair(); err != nil {
				return err
			}
			n, err := eng.Replicate(ctx)
			if err != nil {
				return err
			}
			st.Replications++
			st.ReplicatedNodes += n
		}
		if cfg.BalanceEvery > 0 && i%cfg.BalanceEvery == cfg.BalanceEvery-1 {
			if err := repair(); err != nil {
				return err
			}
			if err := eng.Tick(ctx); err != nil {
				return err
			}
			moves, err := eng.Balance(ctx, cfg.Strategy)
			if err != nil {
				return err
			}
			st.BalanceRounds++
			st.BalanceMoves += moves
			if err := peerIDs(); err != nil {
				return err
			}
		}

		roll := r.Float64()
		switch {
		case roll < cfg.JoinRate:
			// A join routes through the tree (Algorithm 1), so it is
			// a mutation too: repair first.
			if err := repair(); err != nil {
				return err
			}
			id, err := eng.AddPeer(ctx, cfg.JoinCapacity)
			if err != nil {
				return err
			}
			ids = append(ids, id)
			st.Joins++
		case roll < cfg.JoinRate+cfg.LeaveRate:
			if len(ids) <= minPeers {
				continue
			}
			v := r.Intn(len(ids))
			if err := eng.RemovePeer(ctx, ids[v]); err != nil {
				return err
			}
			ids = append(ids[:v], ids[v+1:]...)
			st.Leaves++
		case roll < cfg.JoinRate+cfg.LeaveRate+cfg.CrashRate:
			if len(ids) <= minPeers {
				continue
			}
			v := r.Intn(len(ids))
			if err := eng.CrashPeer(ctx, ids[v]); err != nil {
				return err
			}
			ids = append(ids[:v], ids[v+1:]...)
			st.Crashes++
			degraded = true
		case roll < cfg.JoinRate+cfg.LeaveRate+cfg.CrashRate+cfg.RecoverRate:
			if !degraded {
				continue
			}
			if err := recoverNow(); err != nil {
				return err
			}
		default:
			if err := data(i, r, repair); err != nil {
				return err
			}
		}
	}
	if err := repair(); err != nil {
		return err
	}
	st.FinalPeers = eng.NumPeers()
	return nil
}

// Run drives the engine through cfg.Ops workload steps over the key
// corpus cfg.Keys and returns the run's statistics. The engine is
// left repaired and validated: a final Recover (if a crash is
// outstanding) and Validate close the run.
func Run(ctx context.Context, eng engine.Engine, cfg Config) (Stats, error) {
	var st Stats
	if len(cfg.Keys) == 0 {
		return st, errors.New("churn: empty key corpus")
	}
	err := drive(ctx, eng, cfg, &st, func(i int, r *rand.Rand, repair func() error) error {
		key := cfg.Keys[r.Intn(len(cfg.Keys))]
		switch i % 4 {
		case 0: // mutate: (re-)register the key
			if err := repair(); err != nil {
				return err
			}
			if err := eng.Register(ctx, key, "ep://"+key); err != nil {
				return err
			}
			st.Registers++
		case 2: // mutate: withdraw one endpoint
			if err := repair(); err != nil {
				return err
			}
			if _, err := eng.Unregister(ctx, key, "ep://"+key); err != nil {
				return err
			}
			st.Unregisters++
		default: // read: routed discovery, allowed degraded
			res, err := eng.Discover(ctx, key)
			if err != nil {
				return err
			}
			st.Discoveries++
			if res.Found {
				st.Found++
			}
		}
		return nil
	}, nil)
	if err != nil {
		return st, err
	}
	if err := eng.Validate(ctx); err != nil {
		return st, fmt.Errorf("churn: post-run validation: %w", err)
	}
	all, err := eng.Complete(ctx, "")
	if err != nil {
		return st, err
	}
	st.FinalKeys = len(all.Keys)
	return st, nil
}
