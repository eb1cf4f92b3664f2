package daemon

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dlpt/internal/obs"
)

// TestMetricsEndpointThreeDaemonOverlay is the metrics smoke: a
// 3-daemon overlay with the HTTP listener enabled serves the core
// observability series in valid Prometheus text format on every host
// while real cross-daemon traffic flows, and the same counters answer
// the "obs" admin op over the wire.
func TestMetricsEndpointThreeDaemonOverlay(t *testing.T) {
	cfg := testConfig(1)
	cfg.MetricsAddr = "127.0.0.1:0"
	cfg.ReplicateEvery = Duration(200 * time.Millisecond)
	steward := startDaemon(t, cfg)
	var ds []*Daemon
	ds = append(ds, steward)
	for i := 1; i < 3; i++ {
		mc := testConfig(int64(i+1), steward.Addr())
		mc.MetricsAddr = "127.0.0.1:0"
		ds = append(ds, startDaemon(t, mc))
	}

	ctx := context.Background()
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("svc%02d", i)
		d := ds[i%3]
		if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "register", Key: k, Value: "ep"}); err != nil {
			t.Fatalf("register %s: %v", k, err)
		}
	}
	for i, d := range ds {
		for j := 0; j < 12; j++ {
			k := fmt.Sprintf("svc%02d", j)
			resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "discover", Key: k})
			if err != nil || !resp.Found {
				t.Fatalf("discover %s via daemon %d: err=%v", k, i, err)
			}
		}
	}
	// A replicate tick populates the replication-lag gauge.
	waitFor(t, 5*time.Second, func() bool {
		snap, err := Admin(ctx, steward.Addr(), &AdminRequest{Op: "obs"})
		return err == nil && snap.Obs.Get(obs.SeriesReplicaSnapshots) > 0
	}, "replication tick observed")

	required := []string{
		obs.SeriesVisitLoad,
		obs.SeriesHopLatency + "_count",
		obs.SeriesHopLatency + "_bucket",
		obs.SeriesHopLatency + "_sum",
		obs.SeriesPoolConns,
		obs.SeriesReplicationLag,
		obs.SeriesVisits,
		obs.SeriesWireBytesIn,
		obs.SeriesApplySeq,
		obs.SeriesMirrorRepairs,
		obs.SeriesApplyRefusals,
	}
	for i, d := range ds {
		addr := d.MetricsAddr()
		if addr == "" {
			t.Fatalf("daemon %d has no metrics listener", i)
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatalf("scrape daemon %d: %v", i, err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("daemon %d content type %q", i, ct)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		text := string(body)
		// Valid exposition shape: non-comment lines are "series value".
		sawType := false
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				sawType = true
				continue
			}
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if len(strings.Fields(line)) != 2 {
				t.Fatalf("daemon %d: malformed exposition line %q", i, line)
			}
		}
		if !sawType {
			t.Fatalf("daemon %d exposition has no TYPE metadata", i)
		}
		for _, fam := range required {
			if !strings.Contains(text, "\n"+fam) && !strings.HasPrefix(text, fam) {
				t.Fatalf("daemon %d exposition missing family %s:\n%.600s", i, fam, text)
			}
		}
		// The steward applied the registrations through its own mutation
		// stream; every mirror follows the same sequence.
		if !strings.Contains(text, obs.SeriesApplySeq+" ") {
			t.Fatalf("daemon %d missing apply-seq gauge", i)
		}

		// /debug/trace serves span trees recorded by real wire traffic.
		tr, err := http.Get("http://" + addr + "/debug/trace")
		if err != nil {
			t.Fatalf("trace scrape daemon %d: %v", i, err)
		}
		tb, _ := io.ReadAll(tr.Body)
		tr.Body.Close()
		if !strings.HasPrefix(string(tb), "[") {
			t.Fatalf("daemon %d /debug/trace not a JSON list: %.80s", i, tb)
		}
	}

	// The ADMIN wire path answers the same counters without HTTP. Node
	// visits accrue on whichever daemon hosts the visited nodes, so the
	// fleet-wide sum is the meaningful check.
	visits := 0.0
	for i, d := range ds {
		resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "obs"})
		if err != nil {
			t.Fatal(err)
		}
		visits += resp.Obs.Get(obs.SeriesVisits)
		if i > 0 && resp.Obs.Get(obs.SeriesApplySeq) <= 0 {
			t.Fatalf("obs op reports zero apply seq on member %d", i)
		}
	}
	if visits <= 0 {
		t.Fatal("no node visits recorded across the overlay")
	}
}

// TestMetricsAddrDisabledByDefault pins the opt-in: without
// MetricsAddr no HTTP listener opens, yet the obs admin op still
// serves the snapshot.
func TestMetricsAddrDisabledByDefault(t *testing.T) {
	d := startDaemon(t, testConfig(1))
	if addr := d.MetricsAddr(); addr != "" {
		t.Fatalf("unexpected metrics listener at %s", addr)
	}
	ctx := context.Background()
	if _, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "register", Key: "svc", Value: "ep"}); err != nil {
		t.Fatal(err)
	}
	resp, err := Admin(ctx, d.Addr(), &AdminRequest{Op: "obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Obs) == 0 {
		t.Fatal("obs op returned an empty snapshot")
	}
}
