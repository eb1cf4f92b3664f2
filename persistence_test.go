package dlpt

// Differential and failure-injection tests of the persistence layer:
// a scripted durable workload followed by a whole-overlay crash and a
// cold Restart must yield byte-identical post-recovery catalogues on
// all three engines, the last-peer case included, and replica
// re-homing traffic must be visible under churn.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// runColdRestartWorkload drives the scripted durable workload on one
// engine, kills every peer, restarts from disk and returns the
// engine-independent transcript.
func runColdRestartWorkload(t *testing.T, kind EngineKind) string {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	reg, err := New(6, WithSeed(29), WithAlphabet(keys.LowerAlnum),
		WithEngine(kind), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: a replicated corpus.
	corpus := workload.GridCorpus(40)
	batch := make([]Registration, len(corpus))
	for i, k := range corpus {
		batch[i] = Registration{Name: string(k), Endpoint: "ep://" + string(k)}
	}
	if err := reg.RegisterBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Replicate(ctx); err != nil {
		t.Fatal(err)
	}
	// Epoch 2: more data, another snapshot, then topology churn and
	// journaled mutations past the final snapshot.
	for i := 0; i < 6; i++ {
		if err := reg.Register(ctx, fmt.Sprintf("zzdurable%d", i), "ep"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Replicate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddPeerWithCapacity(ctx, 512); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ { // journal-only: declared after the final snapshot
		if err := reg.Register(ctx, fmt.Sprintf("zzdurable%d", i), "ep"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Unregister(ctx, string(corpus[0]), "ep://"+string(corpus[0])); err != nil {
		t.Fatal(err)
	}
	pre := catalogue(t, reg)

	// Kill every peer: crash all the removable ones without recovery,
	// then die abruptly.
	for reg.NumPeers() > 1 {
		infos, err := reg.Peers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.CrashPeer(ctx, infos[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	return coldRestartTranscript(t, kind, dir, pre)
}

// coldRestartTranscript restarts an overlay from the persistence
// directory alone and returns the engine-independent transcript. The
// journal holds every mutation since the final snapshot, so the
// restored catalogue must equal pre, the pre-crash one, when the
// caller has it.
func coldRestartTranscript(t *testing.T, kind EngineKind, dir, pre string) string {
	t.Helper()
	ctx := context.Background()
	restarted, err := Restart(dir, WithSeed(29), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
	if err != nil {
		t.Fatalf("%s: restart: %v", kind, err)
	}
	defer restarted.Close()
	if err := restarted.Validate(ctx); err != nil {
		t.Fatalf("%s: restored overlay invalid: %v", kind, err)
	}
	post := catalogue(t, restarted)
	if pre != "" && post != pre {
		t.Fatalf("%s: cold restart changed the catalogue:\n%s", kind, firstDiff(pre, post))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "peers=%d nodes=%d\n%s", restarted.NumPeers(), restarted.NumNodes(), post)

	// The restored overlay is a normal overlay: it keeps working and
	// keeps persisting.
	if err := restarted.Register(ctx, "zzafterrestart", "ep"); err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Replicate(ctx); err != nil {
		t.Fatal(err)
	}
	svc, ok, err := restarted.Discover(ctx, "zzafterrestart")
	if err != nil || !ok {
		t.Fatalf("%s: discover after restart: ok=%v err=%v", kind, ok, err)
	}
	fmt.Fprintf(&b, "post-restart %s %v\n", svc.Name, svc.Endpoints)
	return b.String()
}

// TestColdRestartDifferential requires every engine to come back from
// a whole-overlay crash with a byte-identical catalogue — and a
// directory an older build left behind to restart into the same one:
// internal/persist/testdata/legacy-v2 is this workload's directory as
// written, up to the crash, by the last build that could still select
// the verbose catalogue encoding (the local engine with
// WithSnapshotCodec("legacy")). The byte format is an encoding choice,
// never a semantic one.
func TestColdRestartDifferential(t *testing.T) {
	ref := runColdRestartWorkload(t, EngineLocal)
	if ref == "" {
		t.Fatal("empty reference transcript")
	}
	for _, kind := range engineKinds {
		if kind != EngineLocal {
			if got := runColdRestartWorkload(t, kind); got != ref {
				t.Errorf("engine %s diverges from local:\n%s", kind, firstDiff(ref, got))
			}
		}
		dir := t.TempDir() // a restart appends and snapshots: work on a copy
		if err := os.CopyFS(dir, os.DirFS(filepath.Join("internal", "persist", "testdata", "legacy-v2"))); err != nil {
			t.Fatal(err)
		}
		if got := coldRestartTranscript(t, kind, dir, ""); got != ref {
			t.Errorf("engine %s restarts the legacy-coded directory differently:\n%s", kind, firstDiff(ref, got))
		}
	}
}

// TestRestartLastPeer pins the last-peer case: a single-peer durable
// overlay dies abruptly and restarts from disk with its whole
// catalogue.
func TestRestartLastPeer(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		dir := t.TempDir()
		reg, err := New(1, WithSeed(31), WithAlphabet(keys.LowerAlnum),
			WithEngine(kind), WithPersistence(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"dgemm", "dgemv", "saxpy"} {
			if err := reg.Register(ctx, k, "ep://"+k); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reg.Replicate(ctx); err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(ctx, "journaled", "ep"); err != nil {
			t.Fatal(err)
		}
		if err := reg.Close(); err != nil { // the last peer dies
			t.Fatal(err)
		}

		restarted, err := Restart(dir, WithSeed(31), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		defer restarted.Close()
		if err := restarted.Validate(ctx); err != nil {
			t.Fatal(err)
		}
		if got := restarted.NumPeers(); got != 1 {
			t.Fatalf("restored %d peers, want 1", got)
		}
		svcs, err := restarted.Services(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := "[dgemm dgemv journaled saxpy]"
		if fmt.Sprint(svcs) != want {
			t.Fatalf("restored services %v, want %s", svcs, want)
		}
	})
}

// TestRestartBeforeFirstReplicate pins the construction-time epoch: a
// durable overlay snapshots its fresh ring at construction, so a
// crash before the first explicit Replicate still restores the ring
// plus the journaled mutations — and starting a fresh overlay on a
// previous run's directory cannot mix the two runs' catalogues.
func TestRestartBeforeFirstReplicate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	reg, err := New(2, WithSeed(33), WithEngine(EngineLocal), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(ctx, "svc", "ep"); err != nil {
		t.Fatal(err)
	}
	reg.Close() // journaled but never explicitly snapshotted
	restarted, err := Restart(dir, WithEngine(EngineLocal))
	if err != nil {
		t.Fatal(err)
	}
	svcs, err := restarted.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(svcs) != "[svc]" {
		t.Fatalf("restored services %v, want [svc]", svcs)
	}
	restarted.Close()

	// A fresh overlay on the same directory starts its own epoch: a
	// crash before its first Replicate must restore only the fresh
	// run's state, never a chimera with the old run's keys.
	reg2, err := New(2, WithSeed(35), WithEngine(EngineLocal), WithPersistence(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.Register(ctx, "otherkey", "ep"); err != nil {
		t.Fatal(err)
	}
	reg2.Close()
	restarted2, err := Restart(dir, WithEngine(EngineLocal))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted2.Close()
	svcs, err = restarted2.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(svcs) != "[otherkey]" {
		t.Fatalf("restored services %v, want [otherkey]", svcs)
	}

	// An untouched directory has nothing to restore.
	if _, err := Restart(t.TempDir(), WithEngine(EngineLocal)); err == nil {
		t.Fatal("restart from an empty directory succeeded")
	}
}

// TestRehomingTrafficUnderChurn requires topology changes on every
// engine to produce nonzero replica-transfer traffic, reported
// through MembershipStats.
func TestRehomingTrafficUnderChurn(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		reg := newRegistry(t, 6, WithSeed(37), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
		corpus := workload.GridCorpus(80)
		batch := make([]Registration, len(corpus))
		for i, k := range corpus {
			batch[i] = Registration{Name: string(k), Endpoint: "ep"}
		}
		if err := reg.RegisterBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Replicate(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			id, err := reg.AddPeerWithCapacity(ctx, 256)
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.RemovePeer(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := reg.MembershipStats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ms.ReplicaTransferMsgs == 0 || ms.ReplicaTransferredNodes == 0 {
			t.Fatalf("churn produced no replica transfer traffic: %+v", ms)
		}
		if err := reg.Validate(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecoverReportsLostKeys requires the engine-level loss report to
// name exactly the service keys that went missing.
func TestRecoverReportsLostKeys(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		reg := newRegistry(t, 6, WithSeed(41), WithAlphabet(keys.LowerAlnum), WithEngine(kind))
		corpus := workload.GridCorpus(50)
		for _, k := range corpus {
			if err := reg.Register(ctx, string(k), "ep"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reg.Replicate(ctx); err != nil {
			t.Fatal(err)
		}
		extra := []string{"zzloss0", "zzloss1", "zzloss2", "zzloss3"}
		for _, k := range extra {
			if err := reg.Register(ctx, k, "ep"); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.CrashPeer(ctx, busiestPeer(t, reg)); err != nil {
			t.Fatal(err)
		}
		rep, err := reg.Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Lost != len(rep.LostKeys) {
			t.Fatalf("Lost=%d but %d LostKeys", rep.Lost, len(rep.LostKeys))
		}
		lost := make(map[string]bool, len(rep.LostKeys))
		for _, k := range rep.LostKeys {
			lost[k] = true
		}
		svcs, err := reg.Services(ctx)
		if err != nil {
			t.Fatal(err)
		}
		have := make(map[string]bool, len(svcs))
		for _, s := range svcs {
			have[s] = true
		}
		for _, k := range extra {
			if have[k] == lost[k] {
				t.Fatalf("%s: key %q present=%v lost=%v (report %v)",
					kind, k, have[k], lost[k], rep.LostKeys)
			}
		}
		for _, k := range corpus {
			if !have[string(k)] {
				t.Fatalf("replicated key %q missing", k)
			}
		}
	})
}

// TestRestartDirectory pins the durable Directory path: after a
// whole-overlay crash, RestartDirectory rebuilds the overlay from
// disk and rehydrates the per-resource attribute descriptions, so
// Describe, conjunctive queries, withdrawal and validation all work
// on the restored directory.
func TestRestartDirectory(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		dir := t.TempDir()
		d, err := NewDirectory(4, WithSeed(43), WithEngine(kind), WithPersistence(dir))
		if err != nil {
			t.Fatal(err)
		}
		resources := []Resource{
			{ID: "lyon-01", Attributes: map[string]string{"cpu": "x86_64", "mem": "256"}},
			{ID: "lyon-02", Attributes: map[string]string{"cpu": "arm64", "mem": "128"}},
			{ID: "nancy-01", Attributes: map[string]string{"cpu": "x86_64", "mem": "064"}},
		}
		for _, res := range resources {
			if err := d.RegisterResource(ctx, res); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Replicate(ctx); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil { // every peer dies
			t.Fatal(err)
		}

		restored, err := RestartDirectory(dir, WithSeed(43), WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		if err := restored.Validate(ctx); err != nil {
			t.Fatalf("%s: restored directory invalid: %v", kind, err)
		}
		if got := restored.NumResources(); got != len(resources) {
			t.Fatalf("%s: rehydrated %d resources, want %d", kind, got, len(resources))
		}
		attrs, ok := restored.Describe("lyon-02")
		if !ok || attrs["cpu"] != "arm64" || attrs["mem"] != "128" {
			t.Fatalf("%s: describe lyon-02 = %v ok=%v", kind, attrs, ok)
		}
		ids, _, err := restored.Find(ctx, Where{Attr: "cpu", Equals: "x86_64"})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ids) != "[lyon-01 nancy-01]" {
			t.Fatalf("%s: find cpu=x86_64 = %v", kind, ids)
		}
		if ok, err := restored.UnregisterResource(ctx, "nancy-01"); err != nil || !ok {
			t.Fatalf("%s: unregister on restored directory: ok=%v err=%v", kind, ok, err)
		}
		if err := restored.Validate(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// newestEpoch reads the epoch of the newest snapshot file in dir.
func newestEpoch(t *testing.T, dir string) uint64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	var newest uint64
	for _, f := range files {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(f), "snapshot-%d.snap", &seq); err == nil {
			newest = max(newest, seq)
		}
	}
	return newest
}

// TestReplicateWritesImageOnlyWhenNeeded pins when a durable tick writes
// a new image and when it only fsyncs the journal, one rule per case,
// counting snapshot epochs: a tick after writes under a quarter of the
// image's keys, after none, or after a join or a leave (the ring is one
// journal record) rotates nothing; one after the journal reached a
// quarter, or after a recovery, writes an image. Either way a restart
// from the directory serves exactly what the overlay served when the
// tick ran, on the ring it ran on.
func TestReplicateWritesImageOnlyWhenNeeded(t *testing.T) {
	const n = 400
	corpus := workload.GridCorpus(n)
	late := func(m int) []string {
		out := make([]string, m)
		for i := range out {
			out[i] = fmt.Sprintf("zzlate%03d", i)
		}
		return out
	}
	register := func(names []string) func(*testing.T, context.Context, *Registry) {
		return func(t *testing.T, ctx context.Context, reg *Registry) {
			for _, k := range names {
				if err := reg.Register(ctx, k, "ep"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	peers := func(t *testing.T, ctx context.Context, reg *Registry) []PeerInfo {
		infos, err := reg.Peers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return infos
	}
	for _, tc := range []struct {
		name   string
		act    func(*testing.T, context.Context, *Registry)
		rotate bool
	}{
		{"idle", func(*testing.T, context.Context, *Registry) {}, false},
		{"registrations under a quarter", register(late(n / 8)), false},
		{"unregistrations under a quarter", func(t *testing.T, ctx context.Context, reg *Registry) {
			for _, k := range corpus[:n/8] {
				if ok, err := reg.Unregister(ctx, string(k), "ep"); !ok || err != nil {
					t.Fatalf("unregister %q: %v %v", k, ok, err)
				}
			}
		}, false},
		{"registrations reach a quarter", register(late(n / 4)), true},
		{"join", func(t *testing.T, ctx context.Context, reg *Registry) {
			if err := reg.AddPeer(ctx); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"leave", func(t *testing.T, ctx context.Context, reg *Registry) {
			ps := peers(t, ctx, reg)
			if err := reg.RemovePeer(ctx, ps[len(ps)-1].ID); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"crash and lossless recovery", func(t *testing.T, ctx context.Context, reg *Registry) {
			if err := reg.CrashPeer(ctx, busiestPeer(t, reg)); err != nil {
				t.Fatal(err)
			}
			if rep, err := reg.Recover(ctx); err != nil || rep.Lost != 0 {
				t.Fatalf("recover: %+v %v", rep, err)
			}
		}, true},
		{"lossy recovery on an unchanged ring", func(t *testing.T, ctx context.Context, reg *Registry) {
			register(late(4))(t, ctx, reg)
			ps := peers(t, ctx, reg)
			host := ps[0].ID // the lexicographic host of the late keys
			for _, p := range ps {
				if p.ID >= "zzlate000" {
					host = p.ID
					break
				}
			}
			if err := reg.CrashPeer(ctx, host); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Replicate(ctx); err != nil { // the ring's image
				t.Fatal(err)
			}
			if rep, err := reg.Recover(ctx); err != nil || rep.Lost == 0 {
				t.Fatalf("recover lost nothing: %+v %v", rep, err)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			reg, err := New(6, WithSeed(43), WithAlphabet(keys.LowerAlnum),
				WithEngine(EngineLocal), WithPersistence(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			names := make([]string, len(corpus))
			for i, k := range corpus {
				names[i] = string(k)
			}
			register(names)(t, ctx, reg)
			if _, err := reg.Replicate(ctx); err != nil {
				t.Fatal(err)
			}
			tc.act(t, ctx, reg)
			before := newestEpoch(t, dir)
			if _, err := reg.Replicate(ctx); err != nil {
				t.Fatal(err)
			}
			if rotated := newestEpoch(t, dir) > before; rotated != tc.rotate {
				t.Fatalf("tick wrote an image: %v, want %v", rotated, tc.rotate)
			}
			want, err := reg.Services(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ring := ringOf(peers(t, ctx, reg))
			reg.Close()
			restarted, err := Restart(dir, WithSeed(43), WithAlphabet(keys.LowerAlnum), WithEngine(EngineLocal))
			if err != nil {
				t.Fatal(err)
			}
			defer restarted.Close()
			got, err := restarted.Services(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("restart serves %d services, the overlay served %d at the tick", len(got), len(want))
			}
			if restartedRing := ringOf(peers(t, ctx, restarted)); restartedRing != ring {
				t.Fatalf("restart runs on ring %s, the tick ran on %s", restartedRing, ring)
			}
		})
	}
}

// ringOf renders a ring's ids and capacities, in ring order.
func ringOf(infos []PeerInfo) string {
	var b strings.Builder
	for _, p := range infos {
		fmt.Fprintf(&b, "%s/%d ", p.ID, p.Capacity)
	}
	return b.String()
}

// TestTornNewestImageFallsBack tears the newest image of a directory
// whose ring changed on both sides of it. The restart falls back one
// image and replays both journals: it serves exactly the catalogue of
// the last tick, on a ring no older than the fallback image's — here the
// last tick's, which the newest journal recorded.
func TestTornNewestImageFallsBack(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := []Option{WithSeed(47), WithAlphabet(keys.LowerAlnum), WithEngine(EngineLocal)}
	reg, err := New(6, append(opts, WithPersistence(dir))...)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if _, err := reg.Replicate(ctx); err != nil {
			t.Fatalf("replicate after %s: %v", what, err)
		}
	}
	corpus := workload.GridCorpus(200)
	for _, k := range corpus[:100] {
		if err := reg.Register(ctx, string(k), "ep"); err != nil {
			t.Fatal(err)
		}
	}
	step("the first registrations", nil)
	fallback := newestEpoch(t, dir)
	fallbackRing, err := reg.Peers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	step("a join", reg.AddPeer(ctx))
	for _, k := range corpus[100:] { // a quarter and more: the next tick writes an image
		if err := reg.Register(ctx, string(k), "ep"); err != nil {
			t.Fatal(err)
		}
	}
	step("the late registrations", nil)
	newest := newestEpoch(t, dir)
	if newest == fallback {
		t.Fatal("the late registrations wrote no image")
	}
	ps, err := reg.Peers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	step("a leave", reg.RemovePeer(ctx, ps[0].ID))
	if newestEpoch(t, dir) != newest {
		t.Fatal("the leave wrote an image")
	}
	want, err := reg.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ps, err = reg.Peers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ring := ringOf(ps)
	reg.Close()

	path := filepath.Join(dir, fmt.Sprintf("snapshot-%d.snap", newest))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	restarted, err := Restart(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	got, err := restarted.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restart serves %d services, the overlay served %d at the tick", len(got), len(want))
	}
	ps, err = restarted.Peers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if restartedRing := ringOf(ps); restartedRing != ring {
		t.Fatalf("restart runs on ring %s, the last tick ran on %s (the fallback image's: %s)",
			restartedRing, ring, ringOf(fallbackRing))
	}
}
