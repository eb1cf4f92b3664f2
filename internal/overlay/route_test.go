package overlay

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// The failure contract of the one-way routed path, held once, against
// the fake link: nothing acknowledges a hop, so whatever is lost in
// flight is the originator's to notice (the sweeper, within one to two
// reissueAfter periods) and to re-issue from a fresh entry draw; a peer
// that cannot pass a hop on says so and the re-issue is immediate;
// attempts are bounded and end in the typed ErrNoReply; a reply nobody
// waits on is dropped; and nothing stays pending, whatever happened.

// reissueBound is how long one lost hop may delay a call: the sweeper
// expires it within two periods; the rest is slack for a loaded
// machine.
const reissueBound = 2*reissueAfter + 2*time.Second

// midPath matches a hop a peer passed on, as opposed to one the
// originator sent itself.
func midPath(h Hop) bool { return h.Logical+h.Redirects > 0 }

// startCorpus is start over n peers with a grid corpus registered: its
// keys cover the alphabet, so their tree nodes land on every peer and
// routes cross between them.
func startCorpus(t *testing.T, n, nkeys int) (*Runtime, *fakeLink, []keys.Key) {
	t.Helper()
	r, f := start(t, n, 0)
	corpus := workload.GridCorpus(nkeys)
	for _, k := range corpus {
		if err := r.Register(k, "v"); err != nil {
			t.Fatal(err)
		}
	}
	return r, f, corpus
}

// discoverAll discovers every key of the corpus and fails the test on
// a wrong answer.
func discoverAll(t *testing.T, r *Runtime, corpus []keys.Key) {
	t.Helper()
	for _, k := range corpus {
		res, err := r.Discover(k)
		if err != nil || !res.Found || len(res.Values) != 1 || res.Values[0] != "v" {
			t.Fatalf("discover %q: %+v, %v", k, res, err)
		}
	}
}

// idle fails the test unless the pending table is empty.
func idle(t *testing.T, r *Runtime) {
	t.Helper()
	if n := r.PendingCalls(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}

// A hop dropped mid-path vanishes without breaking anything: the
// attempt it belonged to is found overdue after one to two sweeper
// periods and the call completes through a re-issue — a discovery and a
// query route alike.
func TestLostHopIsReissued(t *testing.T) {
	r, f, corpus := startCorpus(t, 6, 80)
	var dropped int
	dropOne := func(_ int, h Hop) (bool, error) {
		if dropped == 0 && midPath(h) {
			dropped++
			return true, nil
		}
		return false, nil
	}
	lose := func(what string, call func() error) {
		t.Helper()
		dropped = 0
		f.hook(dropOne, nil)
		defer f.hook(nil, nil)
		for i := 0; dropped == 0; i++ {
			if i == 50 {
				t.Fatalf("%s: no hop ever left its entry host", what)
			}
			began := time.Now()
			if err := call(); err != nil {
				t.Fatalf("%s across a dropped hop: %v", what, err)
			}
			if d := time.Since(began); dropped > 0 && (d < reissueAfter || d > reissueBound) {
				t.Fatalf("%s: lost hop noticed after %v; want between %v and %v", what, d, reissueAfter, reissueBound)
			}
		}
		idle(t, r)
	}
	lose("discover", func() error {
		res, err := r.Discover(corpus[17])
		if err == nil && !res.Found {
			err = errors.New("not found")
		}
		return err
	})
	lose("query route", func() error {
		var rep Reply
		root, ok, err := r.Originate(context.Background(), "query", Hop{Query: true, Key: corpus[17][:2]}, &rep)
		root.End()
		if err == nil && (!ok || !rep.Found || !keys.IsPrefix(rep.Anchor, corpus[17][:2])) {
			err = fmt.Errorf("route answered %+v", rep)
		}
		return err
	})
}

// A reply delivered twice completes its call once: the second copy
// finds no pending entry and is dropped — no wrong answer for a later
// call, no leaked entry. So is a reply for an id nobody ever waited on.
func TestDuplicateReplyDiscarded(t *testing.T) {
	r, f, corpus := startCorpus(t, 4, 40)
	dups := 0
	f.hook(nil, func(n int, _ Reply) (drop, dup bool) {
		if n%4 == 0 {
			dups++
			return false, true
		}
		return false, false
	})
	discoverAll(t, r, corpus)
	if dups == 0 {
		t.Fatal("no reply was duplicated")
	}
	idle(t, r)
	r.Complete(1, Reply{Found: true})
	r.Complete(1<<40, Reply{Found: true})
	idle(t, r)
	discoverAll(t, r, corpus)
}

// A peer whose send fails answers Retry instead of guessing: the
// originator re-issues at once, without waiting for the sweeper, and
// the caller sees neither the error nor a false "absent".
func TestSendErrorBecomesRetry(t *testing.T) {
	r, f, corpus := startCorpus(t, 6, 80)
	var failed, retries int
	f.hook(func(_ int, h Hop) (bool, error) {
		if failed == 0 && midPath(h) {
			failed++
			return false, errors.New("link down")
		}
		return false, nil
	}, func(_ int, rep Reply) (drop, dup bool) {
		if rep.Retry {
			retries++
			if rep.Err == "" || rep.Found {
				t.Errorf("retry reply %+v", rep)
			}
		}
		return false, false
	})
	began := time.Now()
	for i := 0; failed == 0 && i < 50; i++ {
		discoverAll(t, r, corpus)
	}
	if failed != 1 || retries != 1 {
		t.Fatalf("%d sends failed, %d Retry replies", failed, retries)
	}
	if d := time.Since(began); d >= reissueAfter {
		t.Fatalf("re-issue after a Retry reply took %v: it waited for the sweeper", d)
	}
	idle(t, r)
}

// Attempts stop at maxAttempts with the typed error, whether each one
// failed outright or was answered Retry, and a cluster that heals
// answers the next call.
func TestAttemptsStopAtMax(t *testing.T) {
	r, f, corpus := startCorpus(t, 5, 40)
	f.hook(func(int, Hop) (bool, error) { return false, errors.New("link down") }, nil)
	_, err := r.Discover(corpus[3])
	if !errors.Is(err, ErrNoReply) {
		t.Fatalf("discover over a dead link: %v", err)
	}
	if n := f.sent(); n != maxAttempts {
		t.Fatalf("%d hops sent, want %d attempts", n, maxAttempts)
	}
	idle(t, r)
	// Every entry send succeeds, every forward fails: each attempt
	// that leaves its entry host ends in a Retry reply.
	f.hook(func(_ int, h Hop) (bool, error) {
		if midPath(h) {
			return false, errors.New("link down")
		}
		return false, nil
	}, nil)
	for _, k := range corpus {
		if res, err := r.Discover(k); err != nil && !errors.Is(err, ErrNoReply) || err == nil && !res.Found {
			t.Fatalf("discover %q behind failing forwards: %+v, %v", k, res, err)
		}
	}
	idle(t, r)
	f.hook(nil, nil)
	discoverAll(t, r, corpus)
}

// A call is not failed by churn: an issue whose entry host left the
// ring before the hop reached it is answered Retry ("peer gone"), and
// one drawn before the ring changed does not count against maxAttempts.
// Three such issues in a row, which used to spend every attempt, leave
// the call to a fourth that is answered. When every issue meets a ring
// change, maxIssues ends the call with the typed ErrNoReply.
func TestRingChangesSpendNoAttempts(t *testing.T) {
	r, f, corpus := startCorpus(t, 10, 80)
	entries := 0
	f.hook(func(_ int, h Hop) (bool, error) {
		if midPath(h) {
			return false, nil
		}
		if entries++; entries <= maxAttempts {
			r.Mu.RLock()
			_, host, _ := r.Net.NodeAt(h.At)
			r.Mu.RUnlock()
			if err := r.RemovePeer(host.ID); err != nil {
				t.Error(err)
			}
		}
		return false, nil
	}, nil)
	res, err := r.Discover(corpus[3])
	if err != nil || !res.Found {
		t.Fatalf("discover behind %d departed entry hosts: %+v, %v", maxAttempts, res, err)
	}
	if entries != maxAttempts+1 {
		t.Fatalf("%d issues, want %d", entries, maxAttempts+1)
	}
	idle(t, r)
	f.hook(func(_ int, h Hop) (bool, error) {
		if _, err := r.AddPeer(100); err != nil {
			t.Error(err)
		}
		return false, errors.New("link down")
	}, nil)
	before := f.sent()
	if _, err := r.Discover(corpus[5]); !errors.Is(err, ErrNoReply) {
		t.Fatalf("discover with the ring changing under every issue: %v", err)
	}
	if n := f.sent() - before; n != maxIssues {
		t.Fatalf("%d issues, want %d", n, maxIssues)
	}
	idle(t, r)
	f.hook(nil, nil)
	discoverAll(t, r, corpus)
}

// Waiters whose hops are lost are released at once by what ends the
// wait early — the caller's context, or Halt — each with the matching
// error and with its pending entry withdrawn.
func TestCancelAndHaltReleaseWaiters(t *testing.T) {
	r, f, corpus := startCorpus(t, 4, 40)
	f.hook(func(int, Hop) (bool, error) { return true, nil }, nil)
	const waiters = 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := context.Background()
			if w == 0 {
				c = ctx
			}
			_, err := r.DiscoverContext(c, corpus[w])
			if w == 0 {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled waiter returned %v", err)
				}
				return
			}
			errs <- err
		}(w)
	}
	waitPending := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(2 * reissueAfter); r.PendingCalls() != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d calls pending, want %d", r.PendingCalls(), n)
			}
		}
	}
	waitPending(waiters)
	cancel()
	waitPending(waiters - 1)
	r.Halt()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrStopped) {
			t.Errorf("waiter released by Halt returned %v", err)
		}
	}
	idle(t, r)
	if _, err := r.Discover(corpus[1]); !errors.Is(err, ErrStopped) {
		t.Fatalf("discover on a halted runtime: %v", err)
	}
}

// A hop standing at a node has three outcomes at the peer serving it:
// the peer hosts the node and the walk steps on; the peer is gone and
// the originator is told to retry; or the node lives elsewhere and the
// hop is redirected to its current host — a bounded number of times,
// so a node lost to an unrecovered crash ends as not found.
func TestAdvanceOutcomes(t *testing.T) {
	r, _, corpus := startCorpus(t, 5, 80)
	hostOf := func(k keys.Key) keys.Key {
		r.Mu.RLock()
		defer r.Mu.RUnlock()
		host, _ := r.Net.HostOf(k)
		return host
	}
	k := corpus[11]
	h, rep := Hop{Key: k, At: k}, Reply{}
	if _, done := r.advance(hostOf(k), &h, &rep); !done || !rep.Found || h.Redirects != 0 {
		t.Fatalf("hop at its host: done %v, %+v, %d redirects", done, rep, h.Redirects)
	}

	// A balancing move: a peer hands its lowest node to its predecessor,
	// which takes the node's key as its id.
	r.Mu.Lock()
	var moved, from, to keys.Key
	ids := r.Net.PeerIDs()
	for i := 1; i < len(ids) && moved == ""; i++ {
		if s, _ := r.Net.Peer(ids[i]); s.NumNodes() > 0 {
			lowest := slices.MinFunc(s.Nodes(), func(a, b *core.Node) int { return cmp.Compare(a.Key, b.Key) })
			moved, from, to = lowest.Key, ids[i], ids[i-1]
		}
	}
	if moved == "" {
		r.Mu.Unlock()
		t.Fatal("no peer past the first hosts a node")
	}
	err := r.Net.MoveNode(moved, from, to)
	if err == nil {
		err = r.Net.RenamePeer(to, moved)
	}
	if err == nil {
		err = r.Net.Validate()
	}
	r.Mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	h, rep = Hop{Key: moved, At: moved}, Reply{}
	if next, done := r.advance(from, &h, &rep); done || next != moved || h.Redirects != 1 {
		t.Fatalf("hop at the moved node's old host: next %q (want %q), done %v, %d redirects, %+v",
			next, moved, done, h.Redirects, rep)
	}

	// A node lost to a crash nobody recovered: redirected to the peer the
	// placement names, which does not have it either, until the bound.
	victim := hostOf(corpus[40])
	if err := r.FailPeer(victim); err != nil {
		t.Fatal(err)
	}
	lost := corpus[40]
	h = Hop{Key: lost, At: lost}
	self := hostOf(lost)
	for i := 1; ; i++ {
		var rep Reply
		next, done := r.advance(self, &h, &rep)
		if done {
			if i != MaxRedirects+1 || rep.Found || rep.Err != "" {
				t.Fatalf("lost node: done after %d hops (want %d), %+v", i, MaxRedirects+1, rep)
			}
			break
		}
		if next != self {
			t.Fatalf("lost node redirected to %q, the placement names %q", next, self)
		}
	}

	// A hop delivered at a peer that has left.
	gone := hostOf(k)
	if err := r.RemovePeer(gone); err != nil {
		t.Fatal(err)
	}
	h, rep = Hop{Key: k, At: k}, Reply{}
	if _, done := r.advance(gone, &h, &rep); !done || !rep.Retry || !strings.Contains(rep.Err, "gone") {
		t.Fatalf("hop at a departed peer: done %v, %+v", done, rep)
	}
}
