package dlpt

// Differential and cancellation tests of the execution engines: the
// same seeded workload must produce byte-identical results on the
// sequential core, the goroutine runtime and the TCP transport, and
// cancelling a discovery context must abort promptly on the
// concurrent backends.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// runDifferentialWorkload drives one fixed register / discover /
// complete / range / unregister / churn workload against a registry
// and serializes every observable result (found flags, value sets,
// key sets, catalogue, peer-independent invariants) into a
// transcript. Hop counts are excluded: they depend on random entry
// points, the results must not.
func runDifferentialWorkload(t *testing.T, kind EngineKind) string {
	t.Helper()
	ctx := context.Background()
	reg := newRegistry(t, 6, WithSeed(11), WithAlphabet(keys.LowerAlnum), WithEngine(kind))

	var b strings.Builder
	corpus := workload.GridCorpus(60)

	// Phase 1: batch-register two thirds, single-register the rest
	// with a second endpoint for every fourth key.
	batch := make([]Registration, 0, len(corpus))
	for _, k := range corpus[:40] {
		batch = append(batch, Registration{Name: string(k), Endpoint: "ep://" + string(k)})
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	for i, k := range corpus[40:] {
		if err := reg.Register(ctx, string(k), "ep://"+string(k)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := reg.Register(ctx, string(k), "alt://"+string(k)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 2: churn — grow the overlay mid-workload.
	for i := 0; i < 3; i++ {
		if err := reg.AddPeer(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 3: unregister a deterministic subset.
	for i, k := range corpus {
		if i%9 == 0 {
			was, err := reg.Unregister(ctx, string(k), "ep://"+string(k))
			fmt.Fprintf(&b, "unregister %s -> %v %v\n", k, was, err)
		}
	}

	// Phase 4: discovery over every key plus some absent ones.
	probes := append([]keys.Key{}, corpus...)
	probes = append(probes, "zz_missing", "aa", "sgemm_nope")
	for _, k := range probes {
		svc, ok, err := reg.Discover(ctx, string(k))
		if err != nil {
			t.Fatalf("%s: discover %q: %v", kind, k, err)
		}
		fmt.Fprintf(&b, "discover %s -> %v %v\n", k, ok, svc.Endpoints)
	}

	// Phase 5: completions and range queries.
	for _, prefix := range []string{"sge", "s3l_", "dge", "pd", "zz", ""} {
		ks, err := reg.Complete(ctx, prefix, 0)
		if err != nil {
			t.Fatalf("%s: complete %q: %v", kind, prefix, err)
		}
		fmt.Fprintf(&b, "complete %q -> %v\n", prefix, ks)
	}
	for _, r := range [][2]string{{"d", "e"}, {"pd", "pz"}, {"a", "zzzz"}, {"x", "a"}} {
		ks, err := reg.Range(ctx, r[0], r[1], 0)
		if err != nil {
			t.Fatalf("%s: range %v: %v", kind, r, err)
		}
		fmt.Fprintf(&b, "range %v -> %v\n", r, ks)
	}

	// Phase 6: whole-catalogue reads and invariants.
	svcs, err := reg.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "services -> %v\n", svcs)
	fmt.Fprintf(&b, "numnodes -> %d\n", reg.NumNodes())
	if err := reg.Validate(ctx); err != nil {
		t.Fatalf("%s: validate: %v", kind, err)
	}
	return b.String()
}

// TestEnginesDifferential requires the three engines to answer the
// identical seeded workload byte-identically.
func TestEnginesDifferential(t *testing.T) {
	transcripts := make(map[EngineKind]string, len(engineKinds))
	for _, kind := range engineKinds {
		transcripts[kind] = runDifferentialWorkload(t, kind)
	}
	ref := transcripts[EngineLocal]
	if ref == "" {
		t.Fatal("empty reference transcript")
	}
	for _, kind := range engineKinds[1:] {
		if transcripts[kind] != ref {
			t.Errorf("engine %s diverges from local:\n%s", kind,
				firstDiff(ref, transcripts[kind]))
		}
	}
}

// TestEnginesDifferentialLongScan is the differential check at a size
// where the tcp engine's result crosses frame boundaries: 3,000 keys
// leave as five slow-start frames and then at least three of the
// 512-key ceiling. Drained, ranged, limited mid-frame and abandoned
// mid-frame, every engine must deliver the same key sequence.
func TestEnginesDifferentialLongScan(t *testing.T) {
	transcripts := make(map[EngineKind]string, len(engineKinds))
	for _, kind := range engineKinds {
		ctx := context.Background()
		reg := newRegistry(t, 8, WithSeed(17), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
		corpus := registerLargeCorpus(t, reg, 3000)
		var b strings.Builder
		ks, err := reg.Complete(ctx, "", 0)
		if err != nil || len(ks) != len(corpus) {
			t.Fatalf("%s: complete: %d keys, err %v", kind, len(ks), err)
		}
		fmt.Fprintf(&b, "complete:\n%s\n", strings.Join(ks, "\n"))
		lo, hi := ks[100], ks[2900]
		if ks, err = reg.Range(ctx, lo, hi, 0); err != nil || len(ks) != 2801 {
			t.Fatalf("%s: range: %d keys, err %v", kind, len(ks), err)
		}
		fmt.Fprintf(&b, "range:\n%s\n", strings.Join(ks, "\n"))
		if ks, err = reg.Complete(ctx, "", 1700); err != nil || len(ks) != 1700 {
			t.Fatalf("%s: limited complete: %d keys, err %v", kind, len(ks), err)
		}
		fmt.Fprintf(&b, "limit:\n%s\n", strings.Join(ks, "\n"))
		ks = ks[:0]
		for k, err := range reg.RangeSeq(ctx, lo, hi, 0) {
			if err != nil {
				t.Fatalf("%s: range seq: %v", kind, err)
			}
			if ks = append(ks, k); len(ks) == 1100 {
				break // early Close inside the second ceiling frame
			}
		}
		fmt.Fprintf(&b, "abandoned:\n%s\n", strings.Join(ks, "\n"))
		if err := reg.Validate(ctx); err != nil {
			t.Fatalf("%s: validate: %v", kind, err)
		}
		transcripts[kind] = b.String()
	}
	for _, kind := range engineKinds[1:] {
		if ref := transcripts[EngineLocal]; transcripts[kind] != ref {
			t.Errorf("engine %s diverges from local:\n%s", kind, firstDiff(ref, transcripts[kind]))
		}
	}
}

// firstDiff returns the first differing line pair for a readable
// failure message.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  local: %s\n  other: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("transcript lengths differ: %d vs %d lines", len(al), len(bl))
}

// TestDiscoverCancelInFlight cancels a context while discoveries are
// streaming through the concurrent engines and requires a prompt
// context.Canceled.
func TestDiscoverCancelInFlight(t *testing.T) {
	for _, kind := range []EngineKind{EngineLive, EngineTCP} {
		t.Run(string(kind), func(t *testing.T) {
			ctx := context.Background()
			reg := newRegistry(t, 5, WithSeed(3), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
			corpus := workload.GridCorpus(50)
			for _, k := range corpus {
				if err := reg.Register(ctx, string(k), "ep"); err != nil {
					t.Fatal(err)
				}
			}
			cctx, cancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					if _, _, err := reg.Discover(cctx, string(corpus[i%len(corpus)])); err != nil {
						done <- err
						return
					}
				}
			}()
			time.Sleep(5 * time.Millisecond)
			start := time.Now()
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled", err)
				}
				if d := time.Since(start); d > time.Second {
					t.Fatalf("cancellation took %v", d)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("discovery did not return after cancel")
			}
		})
	}
}

// TestManyDiscoveriesInFlight holds the two routing engines to one
// liveness contract: with far more discoveries in flight than any
// queue on the way holds (512 callers; a live mailbox has 128 slots),
// every call completes, and finds its key.
func TestManyDiscoveriesInFlight(t *testing.T) {
	for _, kind := range []EngineKind{EngineLive, EngineTCP} {
		t.Run(string(kind), func(t *testing.T) {
			ctx := context.Background()
			reg := newRegistry(t, 8, WithSeed(5), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
			corpus := workload.GridCorpus(200)
			for _, k := range corpus {
				if err := reg.Register(ctx, string(k), "ep"); err != nil {
					t.Fatal(err)
				}
			}
			const callers, each = 512, 50
			errs := make(chan error, callers)
			for w := 0; w < callers; w++ {
				go func(w int) {
					for i := 0; i < each; i++ {
						k := string(corpus[(w*31+i)%len(corpus)])
						if _, found, err := reg.Discover(ctx, k); err != nil || !found {
							errs <- fmt.Errorf("discover %q: found=%v err=%v", k, found, err)
							return
						}
					}
					errs <- nil
				}(w)
			}
			deadline := time.After(10 * time.Second)
			for w := 0; w < callers; w++ {
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-deadline:
					t.Fatalf("%d of %d callers still waiting after 10s: the engine is wedged", callers-w, callers)
				}
			}
		})
	}
}

// TestDiscoverDeadline exercises the context deadline path.
func TestDiscoverDeadline(t *testing.T) {
	reg := newRegistry(t, 4, WithSeed(2))
	ctx := context.Background()
	if err := reg.Register(ctx, "key", "ep"); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := reg.Discover(dctx, "key"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline = %v", err)
	}
}
