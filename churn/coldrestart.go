package churn

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dlpt"
)

// ColdRestartStats reports what the scenario did.
type ColdRestartStats struct {
	// Soak is the churn run that preceded the kill.
	Soak Stats
	// Declared is the number of service keys declared at the final
	// replication tick, and Recovered the number present after the
	// cold restart; the scenario fails unless they match exactly.
	Declared, Recovered int
	// CrashedBeforeKill counts the peers crashed explicitly before
	// the final abrupt death of the remainder.
	CrashedBeforeKill int
	// SoakWall, KillWall and RestartWall break the scenario's wall
	// time into its phases: churn + final replication tick, the
	// crash-everyone loop, and dlpt.Restart + validation. At the
	// 1M-key scale the split says which side of the durability path
	// regressed.
	SoakWall, KillWall, RestartWall time.Duration
}

// RunColdRestart drives the full crash-all scenario on reg, a durable
// overlay the caller built (and preloaded, for a catalogue larger
// than what the churn steps register) over the persistence directory
// dir: a churn soak (Run with cfg), a final Replicate, explicit
// crashes of every removable peer (no recovery — their state survives
// only as successor replicas and on disk), abrupt death of the rest
// by closing reg, then dlpt.Restart from dir with opts, the options
// reg was built with. It validates the restored overlay's invariants
// and requires the post-restart catalogue to equal the catalogue
// declared at the final replication tick, byte for byte.
func RunColdRestart(ctx context.Context, reg *dlpt.Registry, dir string, cfg Config, opts ...dlpt.Option) (ColdRestartStats, error) {
	var st ColdRestartStats
	if dir == "" {
		return st, fmt.Errorf("churn: cold restart needs a persistence directory")
	}
	phase := time.Now()
	var err error
	if st.Soak, err = Run(ctx, reg.Engine(), cfg); err != nil {
		return st, err
	}
	// The final replication tick: everything declared up to here must
	// survive the cold restart.
	if _, err := reg.Replicate(ctx); err != nil {
		return st, err
	}
	declared, err := reg.Services(ctx)
	if err != nil {
		return st, err
	}
	st.Declared = len(declared)
	st.SoakWall = time.Since(phase)
	phase = time.Now()

	// Kill every peer: crash all the removable ones (the engine
	// refuses to crash the last), then die abruptly — Close without
	// any graceful handoff takes the survivors down too.
	for reg.NumPeers() > 1 {
		infos, err := reg.Peers(ctx)
		if err != nil {
			return st, err
		}
		if err := reg.CrashPeer(ctx, infos[0].ID); err != nil {
			return st, err
		}
		st.CrashedBeforeKill++
	}
	if err := reg.Close(); err != nil {
		return st, err
	}
	st.KillWall = time.Since(phase)
	phase = time.Now()

	// Cold restart: nothing is left but the persistence directory.
	restarted, err := dlpt.Restart(dir, opts...)
	if err != nil {
		return st, err
	}
	defer restarted.Close()
	if err := restarted.Validate(ctx); err != nil {
		return st, fmt.Errorf("churn: restored overlay invalid: %w", err)
	}
	recovered, err := restarted.Services(ctx)
	if err != nil {
		return st, err
	}
	st.Recovered = len(recovered)
	st.RestartWall = time.Since(phase)
	sort.Strings(declared)
	sort.Strings(recovered)
	if len(declared) != len(recovered) {
		return st, fmt.Errorf("churn: cold restart recovered %d of %d keys",
			len(recovered), len(declared))
	}
	for i := range declared {
		if declared[i] != recovered[i] {
			return st, fmt.Errorf("churn: cold restart catalogue diverges at %q vs %q",
				declared[i], recovered[i])
		}
	}
	return st, nil
}
