package dlpt

import (
	"context"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/workload"
)

// scrapeMetrics GETs the exposition endpoint and returns the body.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseExposition checks Prometheus text-format shape and returns the
// series map. Every non-comment line must be "name{labels} value".
func parseExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		out[line[:i]] = line[i+1:]
	}
	return out
}

// TestMetricsEndpointChurnSoak scrapes /metrics while the overlay
// churns: counters stay monotonic through crash/recover, and balance
// renames never leave stale per-peer visit-load series behind.
func TestMetricsEndpointChurnSoak(t *testing.T) {
	ctx := context.Background()
	ob := NewObservability()
	reg := newRegistry(t, 8, WithEngine(EngineTCP), WithObservability(ob))
	srv := httptest.NewServer(obs.Handler(ob.Registry, ob.Trace))
	defer srv.Close()

	var regs []Registration
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("svc%02d", i)
		regs = append(regs, Registration{Name: name, Endpoint: "ep:" + name})
	}
	if err := reg.RegisterBatch(ctx, regs); err != nil {
		t.Fatal(err)
	}

	monotonic := []string{
		obs.SeriesVisits,
		obs.SeriesHops + `{phase="relay"}`,
		obs.SeriesPoolDials,
		obs.SeriesTopologyEvents + `{event="join"}`,
	}
	prev := make(map[string]float64)
	checkScrape := func(round string) map[string]string {
		t.Helper()
		series := parseExposition(t, scrapeMetrics(t, srv.URL))
		for _, name := range monotonic {
			raw, ok := series[name]
			if !ok {
				t.Fatalf("%s: series %s missing from exposition", round, name)
			}
			var v float64
			if _, err := fmt.Sscanf(raw, "%g", &v); err != nil {
				t.Fatalf("%s: %s value %q: %v", round, name, raw, err)
			}
			if v < prev[name] {
				t.Fatalf("%s: counter %s went backwards: %g -> %g", round, name, prev[name], v)
			}
			prev[name] = v
		}
		return series
	}

	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("svc%02d", (round*17+i)%60)
			if _, found, err := reg.Discover(ctx, name); err != nil || !found {
				t.Fatalf("discover %s: %v found=%v", name, err, found)
			}
		}
		if _, err := reg.Replicate(ctx); err != nil {
			t.Fatal(err)
		}
		checkScrape(fmt.Sprintf("round %d pre-churn", round))

		// Crash a peer mid-soak and recover from replicas.
		infos, err := reg.Peers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.CrashPeer(ctx, infos[len(infos)-1].ID); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Recover(ctx); err != nil {
			t.Fatal(err)
		}
		checkScrape(fmt.Sprintf("round %d post-recover", round))

		// Balance renames peers; visit-load series must follow the new
		// names rather than accumulating stale ones.
		if _, err := reg.Balance(ctx, "MLT"); err != nil {
			t.Fatal(err)
		}
		series := checkScrape(fmt.Sprintf("round %d post-balance", round))
		// Label values arrive escaped in the exposition; escape the live
		// ids the same way before comparing.
		escape := func(v string) string {
			v = strings.ReplaceAll(v, `\`, `\\`)
			v = strings.ReplaceAll(v, "\n", `\n`)
			return strings.ReplaceAll(v, `"`, `\"`)
		}
		livePeers := make(map[string]bool)
		infos, err = reg.Peers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, pi := range infos {
			livePeers[escape(pi.ID)] = true
		}
		loadSeries := 0
		prefix := obs.SeriesVisitLoad + `{peer="`
		for name := range series {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			loadSeries++
			peer := strings.TrimSuffix(name[len(prefix):], `"}`)
			if !livePeers[peer] {
				t.Fatalf("stale visit-load series for departed peer %q after balance", peer)
			}
		}
		if loadSeries == 0 {
			t.Fatal("no per-peer visit-load series exported")
		}
	}

	// The soak must have produced the tentpole series with live data.
	final := parseExposition(t, scrapeMetrics(t, srv.URL))
	for _, name := range []string{
		obs.SeriesHopLatency + `_count{phase="relay"}`,
		obs.SeriesQueryLatency + "_count",
		obs.SeriesReplicationLag,
		obs.SeriesReplicaTransfers,
		obs.SeriesPeerNodes,
	} {
		if _, ok := final[name]; ok {
			continue
		}
		// Some series are label-variadic; accept any series of the family.
		fam := name
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		found := false
		for k := range final {
			if k == fam || strings.HasPrefix(k, fam+"{") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("series family %s missing from final scrape", fam)
		}
	}

	// /debug/trace serves the recorded span forest as JSON.
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "[") {
		t.Fatalf("/debug/trace is not a JSON list: %.80s", body)
	}
	if !strings.Contains(string(body), `"phase"`) {
		t.Fatal("no spans recorded during the soak")
	}
}

// TestDiscoverHopSeriesOnBothRoutingEngines pins metrics parity: the
// one originator behind live and tcp accounts every discovery into
// dlpt_hops_total twice — tree edges under phase="discover", transfers
// between peers under phase="relay" — so one dashboard compares the two
// engines. Both series equal what the calls themselves reported.
func TestDiscoverHopSeriesOnBothRoutingEngines(t *testing.T) {
	for _, kind := range []EngineKind{EngineLive, EngineTCP} {
		t.Run(string(kind), func(t *testing.T) {
			ctx := context.Background()
			reg := newRegistry(t, 6, WithSeed(21), WithAlphabet(keys.LowerAlnum),
				WithEngine(kind), WithObservability(NewObservability()))
			corpus := workload.GridCorpus(120)
			for _, k := range corpus {
				if err := reg.Register(ctx, string(k), "ep"); err != nil {
					t.Fatal(err)
				}
			}
			logical, physical := 0, 0
			for _, k := range corpus {
				svc, found, err := reg.Discover(ctx, string(k))
				if err != nil || !found {
					t.Fatalf("discover %q: found=%v err=%v", k, found, err)
				}
				logical += svc.LogicalHops
				physical += svc.PhysicalHops
			}
			if logical == 0 || physical == 0 {
				t.Fatalf("%d logical, %d physical hops: the corpus never left a peer", logical, physical)
			}
			snap := reg.ObsSnapshot()
			if got := snap.Get(obs.SeriesHops + `{phase="discover"}`); got != float64(logical) {
				t.Errorf(`hops{phase="discover"} = %v, the calls reported %d logical hops`, got, logical)
			}
			if got := snap.Get(obs.SeriesHops + `{phase="relay"}`); got != float64(physical) {
				t.Errorf(`hops{phase="relay"} = %v, the calls reported %d physical hops`, got, physical)
			}
		})
	}
}

// TestObsSnapshotWithoutObservability pins the opt-out: a registry
// built without WithObservability reports an empty snapshot and nil
// bundle rather than failing.
func TestObsSnapshotWithoutObservability(t *testing.T) {
	reg := newRegistry(t, 4, WithEngine(EngineLocal))
	if reg.Observability() != nil {
		t.Fatal("unexpected observability bundle")
	}
	if snap := reg.ObsSnapshot(); len(snap) != 0 {
		t.Fatalf("snapshot has %d series without observability", len(snap))
	}
	ctx := context.Background()
	if err := reg.Register(ctx, "svc", "ep"); err != nil {
		t.Fatal(err)
	}
	if _, found, err := reg.Discover(ctx, "svc"); err != nil || !found {
		t.Fatalf("discover uninstrumented: %v %v", err, found)
	}
}

// TestStreamInstrumentationOnEveryEnding holds every engine to one
// account of a streaming query: drained, abandoned on the first key or
// void by construction (an inverted range), it observes
// dlpt_query_latency_seconds{op="query"} exactly once and ends the
// span of the phase the walker was in (a "walk" span per query that
// walked: keys only come out of the subtree walk; a void range never
// enters the tree). The tcp engine settles the server side after the
// consumer returns, hence the wait.
func TestStreamInstrumentationOnEveryEnding(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		ob := NewObservability()
		reg := newRegistry(t, 4, WithSeed(33), WithAlphabet(keys.LowerAlnum),
			WithEngine(kind), WithObservability(ob))
		corpus := workload.GridCorpus(300)
		batch := make([]Registration, len(corpus))
		for i, k := range corpus {
			batch[i] = Registration{Name: string(k), Endpoint: "ep"}
		}
		if err := reg.RegisterBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		counts := func() (latency float64, walks int) {
			for _, sp := range ob.Trace.Spans() {
				if sp.Phase == obs.PhaseWalk {
					walks++
				}
			}
			return reg.ObsSnapshot().Get(obs.SeriesQueryLatency + `_count{op="query"}`), walks
		}
		for _, tc := range []struct {
			name  string
			seq   iter.Seq2[string, error]
			pulls int // keys consumed before leaving the loop; 0 drains
			keys  int // keys a drain yields
			walks int // walk spans the query ends
		}{
			{"drained", reg.CompleteSeq(ctx, "", 0), 0, len(corpus), 1},
			{"break on the first key", reg.CompleteSeq(ctx, "", 0), 1, 1, 1},
			{"void range", reg.RangeSeq(ctx, "z", "a", 0), 0, 0, 0},
		} {
			lat0, walks0 := counts()
			n := 0
			for _, err := range tc.seq {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == tc.pulls {
					break
				}
			}
			if n != tc.keys {
				t.Fatalf("%s: %d keys, want %d", tc.name, n, tc.keys)
			}
			lat, walks := counts()
			for deadline := time.Now().Add(2 * time.Second); (lat < lat0+1 || walks < walks0+tc.walks) && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
				lat, walks = counts()
			}
			if lat != lat0+1 {
				t.Errorf("%s: query latency observed %v times, want once", tc.name, lat-lat0)
			}
			if walks != walks0+tc.walks {
				t.Errorf("%s: %d walk spans ended, want %d", tc.name, walks-walks0, tc.walks)
			}
		}
	})
}
