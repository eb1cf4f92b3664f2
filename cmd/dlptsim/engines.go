package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"dlpt"
	"dlpt/internal/keys"
	"dlpt/internal/stats"
	"dlpt/internal/workload"
)

// runEngines drives the identical register/discover/range workload
// through each execution engine and reports wall-clock latency and
// routing cost side by side — the deployment-shape comparison the
// paper's future-work prototype asks for. The last two columns say how
// the mapping spreads the tree: the peers holding at least one node, and
// the Gini coefficient of the per-peer node counts.
func runEngines(quick bool, seed int64, w io.Writer) error {
	peers, nkeys, queries := 32, 400, 2000
	if quick {
		peers, nkeys, queries = 8, 120, 300
	}
	corpus := workload.GridCorpus(nkeys)
	batch := make([]dlpt.Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = dlpt.Registration{Name: string(k), Endpoint: "ep://" + string(k)}
	}

	fmt.Fprintf(w, "# Engine comparison: %d peers, %d keys, %d discoveries + %d range queries\n",
		peers, nkeys, queries, queries/10)
	fmt.Fprintf(w, "%-8s  %12s  %12s  %12s  %10s  %10s  %7s  %6s\n",
		"engine", "register", "discover/op", "range/op", "log.hops", "phys.hops", "holders", "gini")

	ctx := context.Background()
	for _, kind := range []dlpt.EngineKind{dlpt.EngineLocal, dlpt.EngineLive, dlpt.EngineTCP} {
		reg, err := dlpt.New(peers,
			dlpt.WithSeed(seed),
			dlpt.WithAlphabet(keys.LowerAlnum),
			dlpt.WithEngine(kind))
		if err != nil {
			return err
		}
		start := time.Now()
		if err := reg.RegisterBatch(ctx, batch); err != nil {
			reg.Close()
			return err
		}
		regDur := time.Since(start)

		var logical, physical int
		start = time.Now()
		for i := 0; i < queries; i++ {
			svc, ok, err := reg.Discover(ctx, string(corpus[i%len(corpus)]))
			if err != nil || !ok {
				reg.Close()
				return fmt.Errorf("%s: discover %q: ok=%v err=%v", kind, corpus[i%len(corpus)], ok, err)
			}
			logical += svc.LogicalHops
			physical += svc.PhysicalHops
		}
		discDur := time.Since(start) / time.Duration(queries)

		start = time.Now()
		for i := 0; i < queries/10; i++ {
			if _, err := reg.Range(ctx, "pd", "pz", 0); err != nil {
				reg.Close()
				return err
			}
		}
		rangeDur := time.Since(start) / time.Duration(queries/10)
		infos, err := reg.Peers(ctx)
		reg.Close()
		if err != nil {
			return err
		}
		holders, counts := 0, make([]float64, len(infos))
		for i, p := range infos {
			counts[i] = float64(p.Nodes)
			if p.Nodes > 0 {
				holders++
			}
		}

		fmt.Fprintf(w, "%-8s  %12v  %12v  %12v  %10.2f  %10.2f  %7d  %6.3f\n",
			kind, regDur.Round(time.Microsecond), discDur.Round(time.Microsecond),
			rangeDur.Round(time.Microsecond), float64(logical)/float64(queries),
			float64(physical)/float64(queries), holders, stats.Gini(counts))
	}
	return nil
}
