// Command dlptd runs one DLPT daemon: a single-peer overlay process
// that joins other dlptd processes over TCP to form one cross-host
// prefix-tree service-discovery overlay.
//
// Usage:
//
//	dlptd run -config dlptd.json
//	dlptd run -listen 127.0.0.1:7401 [-bootstrap host:port,...] [flags]
//	dlptd status [-addr host:port] [-obs]
//	dlptd op [-addr host:port] register KEY VALUE
//	dlptd op [-addr host:port] unregister KEY VALUE
//	dlptd op [-addr host:port] discover KEY
//	dlptd op [-addr host:port] complete PREFIX
//	dlptd op [-addr host:port] range LO HI
//	dlptd op [-addr host:port] validate
//
// A daemon started without -bootstrap seeds a fresh overlay and acts
// as its steward; with -bootstrap it joins the overlay those
// addresses belong to, retrying with backoff until the handshake
// succeeds. SIGINT/SIGTERM shut down gracefully: a member announces
// its departure so its tree nodes hand off before the process exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"dlpt/internal/daemon"
	"dlpt/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:], os.Stdout)
	case "op":
		err = cmdOp(os.Args[2:], os.Stdout)
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return
	default:
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlptd: %v\n", err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, "usage: dlptd run -config FILE | dlptd run [flags]\n"+
		"       dlptd status [-addr HOST:PORT] [-obs]\n"+
		"       dlptd op [-addr HOST:PORT] register|unregister|discover|complete|range|validate ARGS...\n")
}

// cmdRun starts a daemon and blocks until SIGINT/SIGTERM.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("dlptd run", flag.ExitOnError)
	configPath := fs.String("config", "", "JSON config file (flags override it)")
	listen := fs.String("listen", "", "listener bind address, host:port (0 port = ephemeral)")
	advertise := fs.String("advertise", "", "host other daemons dial (for 0.0.0.0 binds)")
	bootstrap := fs.String("bootstrap", "", "comma-separated bootstrap addresses; empty seeds a new overlay")
	dataDir := fs.String("data-dir", "", "persistence directory (steward only)")
	capacity := fs.Int("capacity", 0, "peer capacity (default 64)")
	alphabet := fs.String("alphabet", "", "key alphabet: binary, lower_alnum, printable_ascii or digit string")
	seed := fs.Int64("seed", 0, "rng seed (0 = from clock)")
	metrics := fs.String("metrics", "", "HTTP address serving /metrics and /debug/trace (empty = disabled)")
	electionTimeout := fs.Duration("election-timeout", 0, "election vote round-trip bound and retry pace (default 1s)")
	fs.Parse(args)

	cfg := &daemon.Config{}
	if *configPath != "" {
		var err error
		if cfg, err = daemon.LoadConfig(*configPath); err != nil {
			return err
		}
	}
	if *listen != "" {
		cfg.Listen = *listen
	}
	if *advertise != "" {
		cfg.Advertise = *advertise
	}
	if *bootstrap != "" {
		cfg.Bootstrap = strings.Split(*bootstrap, ",")
	}
	if *dataDir != "" {
		cfg.DataDir = *dataDir
	}
	if *capacity > 0 {
		cfg.Capacity = *capacity
	}
	if *alphabet != "" {
		cfg.Alphabet = *alphabet
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *metrics != "" {
		cfg.MetricsAddr = *metrics
	}
	if *electionTimeout > 0 {
		cfg.ElectionTimeout = daemon.Duration(*electionTimeout)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	d, err := daemon.Start(*cfg, logger.Printf)
	if err != nil {
		return err
	}
	// The advertised address on stdout lets scripts (and the smoke
	// test) bootstrap off ephemeral ports.
	fmt.Println(d.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	logger.Printf("dlptd: %v, shutting down", s)
	return d.Close()
}

// cmdStatus prints a daemon's status as JSON; with -obs it appends the
// daemon's key observability counters (the same series the /metrics
// endpoint exports), fetched over the admin wire path.
func cmdStatus(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dlptd status", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7401", "daemon address")
	showObs := fs.Bool("obs", false, "also print observability counters (visit load, pool, replication lag)")
	fs.Parse(args)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := daemon.GetStatus(ctx, *addr)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		return err
	}
	if !*showObs {
		return nil
	}
	resp, err := daemon.Admin(ctx, *addr, &daemon.AdminRequest{Op: "obs"})
	if err != nil {
		return err
	}
	printObs(w, resp.Obs)
	return nil
}

// printObs renders the counters `dlptd status -obs` surfaces: the ten
// most loaded peers, the connection pool's depth and dial count, the
// replication/apply lag, and the mirror repairs this daemon started as
// steward beside the APPLY records it refused as a member.
func printObs(w io.Writer, snap obs.Snapshot) {
	type load struct {
		peer string
		val  float64
	}
	var loads []load
	prefix := obs.SeriesVisitLoad + `{peer="`
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, `"}`) {
			loads = append(loads, load{peer: k[len(prefix) : len(k)-2], val: v})
		}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].val != loads[j].val {
			return loads[i].val > loads[j].val
		}
		return loads[i].peer < loads[j].peer
	})
	if len(loads) > 10 {
		loads = loads[:10]
	}
	fmt.Fprintf(w, "visit load (top %d):\n", len(loads))
	for _, l := range loads {
		fmt.Fprintf(w, "  %-24s %g\n", l.peer, l.val)
	}
	fmt.Fprintf(w, "pool: %g conns, %g dials\n",
		snap.Get(obs.SeriesPoolConns), snap.Get(obs.SeriesPoolDials))
	fmt.Fprintf(w, "visits: %g total, %g drops\n",
		snap.Get(obs.SeriesVisits), snap.Get(obs.SeriesSaturationDrops))
	fmt.Fprintf(w, "replication lag: %gs (apply seq %g, lag %gs)\n",
		snap.Get(obs.SeriesReplicationLag), snap.Get(obs.SeriesApplySeq), snap.Get(obs.SeriesApplyLag))
	fmt.Fprintf(w, "mirror repairs: %g by records, %g by image; applies refused: %g\n",
		snap.Get(obs.SeriesMirrorRepairs+`{kind="records"}`), snap.Get(obs.SeriesMirrorRepairs+`{kind="image"}`),
		snap.Get(obs.SeriesApplyRefusals))
}

// cmdOp runs one admin operation against a daemon.
func cmdOp(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dlptd op", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7401", "daemon address")
	limit := fs.Int("limit", 0, "result limit for complete/range (0 = unlimited)")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) < 1 {
		return fmt.Errorf("op: missing operation")
	}
	req := &daemon.AdminRequest{Op: rest[0], Limit: *limit}
	switch rest[0] {
	case "register", "unregister":
		if len(rest) != 3 {
			return fmt.Errorf("op %s: want KEY VALUE", rest[0])
		}
		req.Key, req.Value = rest[1], rest[2]
	case "discover":
		if len(rest) != 2 {
			return fmt.Errorf("op discover: want KEY")
		}
		req.Key = rest[1]
	case "complete":
		if len(rest) != 2 {
			return fmt.Errorf("op complete: want PREFIX")
		}
		req.Prefix = rest[1]
	case "range":
		if len(rest) != 3 {
			return fmt.Errorf("op range: want LO HI")
		}
		req.Lo, req.Hi = rest[1], rest[2]
	case "validate":
		if len(rest) != 1 {
			return fmt.Errorf("op validate: no arguments")
		}
	default:
		return fmt.Errorf("op: unknown operation %q", rest[0])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := daemon.Admin(ctx, *addr, req)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}
