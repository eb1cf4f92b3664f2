package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dlpt/internal/daemon"
)

// syncBuffer is a bytes.Buffer safe to read while the exec copier
// goroutine is still writing the live process's stderr into it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer // guarded by mu (written by the exec pipe copier goroutine)
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one dlptd process under test.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
}

// startProc launches a dlptd process and reads its advertised address
// off stdout.
func startProc(t *testing.T, bin, cfgPath string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, "run", "-config", cfgPath), stderr: &syncBuffer{}}
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start dlptd: %v", err)
	}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			addrCh <- sc.Text()
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			t.Fatalf("dlptd printed no address; stderr:\n%s", p.stderr.String())
		}
		p.addr = addr
	case <-time.After(30 * time.Second):
		t.Fatalf("dlptd never printed its address; stderr:\n%s", p.stderr.String())
	}
	return p
}

func writeConfig(t *testing.T, dir, name string, cfg map[string]any) string {
	t.Helper()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out: %s", msg)
}

// TestSmokeThreeProcessOverlay is the end-to-end deployment check:
// three dlptd processes on localhost form one overlay through the
// bootstrap handshake, serve registrations, discoveries and streamed
// completions across process boundaries, and survive the SIGKILL of
// one member — the steward's maintenance loop declares it crashed,
// recovers its nodes from replicas, and the survivors validate clean.
func TestSmokeThreeProcessOverlay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dlptd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dlptd: %v\n%s", err, out)
	}

	base := map[string]any{
		"listen":          "127.0.0.1:0",
		"capacity":        8,
		"alphabet":        "lower_alnum",
		"probe_every":     "100ms",
		"miss_threshold":  3,
		"replicate_every": "500ms",
		"join_timeout":    "20s",
	}
	cfg := func(seed int64, bootstrap ...string) map[string]any {
		m := map[string]any{"seed": seed}
		for k, v := range base {
			m[k] = v
		}
		if len(bootstrap) > 0 {
			m["bootstrap"] = bootstrap
		}
		return m
	}

	steward := startProc(t, bin, writeConfig(t, dir, "steward.json", cfg(1)))
	m1 := startProc(t, bin, writeConfig(t, dir, "m1.json", cfg(2, steward.addr)))
	m2 := startProc(t, bin, writeConfig(t, dir, "m2.json", cfg(3, steward.addr)))
	procs := []*proc{steward, m1, m2}

	ctx := context.Background()
	for i, p := range procs {
		waitUntil(t, 15*time.Second, func() bool {
			st, err := daemon.GetStatus(ctx, p.addr)
			return err == nil && st.Peers == 3
		}, fmt.Sprintf("process %d sees 3 peers; stderr:\n%s", i, p.stderr.String()))
	}

	// Register through every process; each key lands wherever the ring
	// places it, so discoveries and completions cross processes.
	for i := 0; i < 9; i++ {
		k := fmt.Sprintf("svc%02d", i)
		p := procs[i%3]
		if _, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "register", Key: k, Value: "endpoint"}); err != nil {
			t.Fatalf("register %s via process %d: %v", k, i%3, err)
		}
	}
	for i, p := range procs {
		for j := 0; j < 9; j++ {
			k := fmt.Sprintf("svc%02d", j)
			resp, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "discover", Key: k})
			if err != nil || !resp.Found {
				t.Fatalf("discover %s on process %d: found=%v err=%v", k, i, resp != nil && resp.Found, err)
			}
		}
		resp, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "complete", Prefix: "svc"})
		if err != nil {
			t.Fatalf("complete on process %d: %v", i, err)
		}
		if len(resp.Keys) != 9 {
			t.Fatalf("complete on process %d = %d keys, want 9", i, len(resp.Keys))
		}
		if _, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "validate"}); err != nil {
			t.Fatalf("validate on process %d: %v", i, err)
		}
	}

	// Give the replicate tick a beat so every node has a ring-successor
	// snapshot, then SIGKILL one member — no graceful leave.
	time.Sleep(1200 * time.Millisecond)
	if err := m2.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	m2.cmd.Wait()

	survivors := []*proc{steward, m1}
	for i, p := range survivors {
		waitUntil(t, 20*time.Second, func() bool {
			st, err := daemon.GetStatus(ctx, p.addr)
			return err == nil && st.Peers == 2
		}, fmt.Sprintf("survivor %d sees the crash handled; stderr:\n%s", i, p.stderr.String()))
	}
	for i, p := range survivors {
		if _, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "validate"}); err != nil {
			t.Fatalf("validate on survivor %d after SIGKILL: %v", i, err)
		}
		for j := 0; j < 9; j++ {
			k := fmt.Sprintf("svc%02d", j)
			resp, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "discover", Key: k})
			if err != nil || !resp.Found {
				t.Fatalf("key %s lost after SIGKILL (survivor %d): err=%v", k, i, err)
			}
		}
	}

	// Graceful shutdown of the survivors exercises the LEAVE path.
	for _, p := range []*proc{m1, steward} {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	waitUntil(t, 10*time.Second, func() bool {
		return m1.cmd.ProcessState != nil || m1.cmd.Wait() == nil
	}, "member exits on SIGTERM")
}

// TestSmokeStewardFailover is the cross-process failover soak: five
// dlptd processes form one overlay, concurrent register/query load
// runs against the members, and the steward is SIGKILLed mid-load.
// The survivors elect a new steward under epoch 2, every write that
// was acknowledged (before, during or after the failover window)
// stays discoverable, writes resume through every survivor, and the
// restarted old steward rejoins as a plain member of the new epoch.
func TestSmokeStewardFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dlptd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dlptd: %v\n%s", err, out)
	}

	base := map[string]any{
		"listen":           "127.0.0.1:0",
		"capacity":         8,
		"alphabet":         "lower_alnum",
		"probe_every":      "100ms",
		"miss_threshold":   3,
		"replicate_every":  "300ms",
		"join_timeout":     "30s",
		"election_timeout": "400ms",
		"forward_retry":    "20s",
	}
	cfg := func(seed int64, bootstrap ...string) map[string]any {
		m := map[string]any{"seed": seed}
		for k, v := range base {
			m[k] = v
		}
		if len(bootstrap) > 0 {
			m["bootstrap"] = bootstrap
		}
		return m
	}

	steward := startProc(t, bin, writeConfig(t, dir, "steward.json", cfg(1)))
	members := make([]*proc, 0, 4)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("m%d.json", i+1)
		members = append(members, startProc(t, bin, writeConfig(t, dir, name, cfg(int64(i+2), steward.addr))))
	}
	procs := append([]*proc{steward}, members...)

	ctx := context.Background()
	for i, p := range procs {
		waitUntil(t, 20*time.Second, func() bool {
			st, err := daemon.GetStatus(ctx, p.addr)
			return err == nil && st.Peers == 5
		}, fmt.Sprintf("process %d sees 5 peers; stderr:\n%s", i, p.stderr.String()))
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("seed%02d", i)
		if _, err := daemon.Admin(ctx, procs[i%5].addr, &daemon.AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
			t.Fatalf("seed register %s: %v", k, err)
		}
	}
	// Let the replicate tick snapshot replicas so the steward's own
	// nodes survive its death.
	time.Sleep(900 * time.Millisecond)

	// Concurrent load against every member: registers (forwarded
	// originations that must ride out the failover window via the
	// retry budget) and discoveries (served from local mirrors). Only
	// acknowledged writes are asserted durable.
	stop := make(chan struct{})
	var killed atomic.Bool
	type loadResult struct {
		// ackedPostKill are writes whose register call started after
		// the steward was dead — they can only have been serialized by
		// the new steward, so they must be durable. Writes acked by the
		// old steward in its final replicate window may be hosted on
		// the dying peer with no replicas yet and are legitimately lost
		// on crash, so they carry no durability claim here.
		ackedPostKill []string
		errs          []string
	}
	results := make([]loadResult, len(members))
	postKillAcks := make([]atomic.Int32, len(members)) // len(ackedPostKill), readable while the load runs
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *proc) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("load%d%03d", i, n)
				postKill := killed.Load()
				if _, err := daemon.Admin(ctx, m.addr, &daemon.AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
					results[i].errs = append(results[i].errs, fmt.Sprintf("%s: %v", k, err))
				} else if postKill {
					results[i].ackedPostKill = append(results[i].ackedPostKill, k)
					postKillAcks[i].Add(1)
				}
				if _, err := daemon.Admin(ctx, m.addr, &daemon.AdminRequest{Op: "discover", Key: "seed00"}); err != nil {
					results[i].errs = append(results[i].errs, fmt.Sprintf("discover: %v", err))
				}
				time.Sleep(25 * time.Millisecond)
			}
		}(i, m)
	}

	// SIGKILL the steward mid-load: no goodbye, no flush.
	time.Sleep(500 * time.Millisecond)
	if err := steward.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	steward.cmd.Wait()
	killed.Store(true)

	// One survivor assumes stewardship under epoch 2 and every
	// survivor converges on the new epoch with the dead steward
	// crashed out.
	var newSteward *proc
	waitUntil(t, 30*time.Second, func() bool {
		newSteward = nil
		n := 0
		for _, p := range members {
			st, err := daemon.GetStatus(ctx, p.addr)
			if err == nil && st.Role == "steward" && st.Epoch == 2 {
				newSteward = p
				n++
			}
		}
		return n == 1
	}, "one survivor assumes stewardship at epoch 2")
	for i, p := range members {
		waitUntil(t, 30*time.Second, func() bool {
			st, err := daemon.GetStatus(ctx, p.addr)
			return err == nil && st.Epoch == 2 && st.Peers == 4 && len(st.Members) == 4
		}, fmt.Sprintf("survivor %d converges on epoch 2; stderr:\n%s", i, p.stderr.String()))
	}

	// Let the load run under the new steward until every member has had
	// a write acknowledged that started after the kill, then stop it. The
	// write a member had in flight at the kill carries no claim and can
	// sit out a retry backoff of up to two seconds past the election, so
	// a fixed beat here sometimes ended before that member's next write.
	waitUntil(t, 30*time.Second, func() bool {
		for i := range postKillAcks {
			if postKillAcks[i].Load() == 0 {
				return false
			}
		}
		return true
	}, "every member has a write acknowledged that started after the kill")
	close(stop)
	wg.Wait()

	// Writes resumed: the post-kill window must have produced acks on
	// every member (the retry budget covers the election), every
	// post-kill acknowledged write must be discoverable on every
	// survivor, and the replicated seed keys survived the crash.
	for i := range results {
		if len(results[i].ackedPostKill) == 0 {
			t.Fatalf("member %d acked no writes after the kill; errors: %v", i, results[i].errs)
		}
	}
	for i, p := range members {
		for j := range results {
			for _, k := range results[j].ackedPostKill {
				resp, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "discover", Key: k})
				if err != nil || !resp.Found {
					t.Fatalf("post-kill acked write %s missing on survivor %d: err=%v", k, i, err)
				}
			}
		}
		for s := 0; s < 10; s++ {
			k := fmt.Sprintf("seed%02d", s)
			resp, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "discover", Key: k})
			if err != nil || !resp.Found {
				t.Fatalf("replicated seed key %s missing on survivor %d: err=%v", k, i, err)
			}
		}
		if _, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "validate"}); err != nil {
			t.Fatalf("validate on survivor %d: %v", i, err)
		}
	}
	// The survivors agree on the sequence number. The new steward's
	// replication tick keeps advancing it, so all are read in one sweep,
	// and a sweep that straddled a tick is repeated; a survivor that
	// really diverged never agrees.
	waitUntil(t, 10*time.Second, func() bool {
		var want uint64
		for i, p := range members {
			st, err := daemon.GetStatus(ctx, p.addr)
			if err != nil || i > 0 && st.Seq != want {
				return false
			}
			want = st.Seq
		}
		return true
	}, "survivors agree on the sequence number")

	// Fresh writes land through every survivor under the new epoch.
	for i, p := range members {
		k := fmt.Sprintf("resumed%02d", i)
		if _, err := daemon.Admin(ctx, p.addr, &daemon.AdminRequest{Op: "register", Key: k, Value: "v"}); err != nil {
			t.Fatalf("post-failover register via survivor %d: %v", i, err)
		}
	}

	// The old steward restarts with the survivors as bootstrap and
	// rejoins as a plain member of epoch 2.
	restartCfg := cfg(1, members[0].addr, members[1].addr)
	restarted := startProc(t, bin, writeConfig(t, dir, "restarted.json", restartCfg))
	waitUntil(t, 30*time.Second, func() bool {
		st, err := daemon.GetStatus(ctx, restarted.addr)
		return err == nil && st.Role == "member" && st.Epoch == 2 && st.Peers == 5 &&
			st.StewardAddr == newSteward.addr
	}, fmt.Sprintf("old steward rejoins as member; stderr:\n%s", restarted.stderr.String()))
	if _, err := daemon.Admin(ctx, restarted.addr, &daemon.AdminRequest{Op: "validate"}); err != nil {
		t.Fatalf("validate on rejoined old steward: %v", err)
	}
	resp, err := daemon.Admin(ctx, restarted.addr, &daemon.AdminRequest{Op: "discover", Key: "seed00"})
	if err != nil || !resp.Found {
		t.Fatalf("seed key missing on rejoined old steward: err=%v", err)
	}
}
