package persist

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dlpt/internal/catalog"
)

// The kill-anywhere test checks the process-death clause of the
// durability contract on a store that is open and writing: a child
// process (this test binary, re-executed) runs a seeded schedule against
// a Store, acknowledging each call after it returns, and the parent
// SIGKILLs it at a seeded point. Load must then succeed, hold every
// acknowledged call, and equal the schedule's state after some prefix at
// least as long as the acknowledged one. The parent lets the child start
// one call at a time and kills it a seeded few hundred microseconds into
// the call after the chosen acknowledgement, so kills land inside
// appends, fsyncs, renames and journal cut-backs as well as between
// calls. A killed process keeps the OS cache: this is process death, not
// power loss.

// killChildEnv carries "<dir> <seed>" to a re-executed child.
const killChildEnv = "DLPT_PERSIST_KILL_CHILD"

// killPoints is how many children one run of a kill test kills. Each
// run in one process (go test -count=N) takes the next block of seeds,
// which is how a longer sweep runs.
const killPoints = 36

// killOp is one call of a child's schedule: a journal append, a tick
// (JournalCarries on the tick's ring, then SyncJournal where it carries
// and BeginSnapshot + Commit where it does not), or a bare SyncJournal.
type killOp struct {
	kind   byte // 'a' append, 't' tick, 's' sync
	remove bool
	key    string
	value  string
	ring   []PeerState
}

// killState is the durable state after a prefix of a schedule: the ring
// and the catalogue, in the sorted form an image holds.
type killState struct {
	ring []PeerState
	cat  []catalog.Entry
}

// killModel is a catalogue as a map of value sets, the reference every
// replay is held against.
type killModel map[string][]string

func (m killModel) apply(remove bool, k, v string) {
	vals := m[k]
	i, found := slices.BinarySearch(vals, v)
	switch {
	case !remove && !found:
		m[k] = slices.Insert(slices.Clone(vals), i, v)
	case remove && found:
		if len(vals) == 1 {
			delete(m, k)
		} else {
			m[k] = slices.Delete(slices.Clone(vals), i, i+1)
		}
	}
}

func (m killModel) sorted() []catalog.Entry {
	out := make([]catalog.Entry, 0, len(m))
	for k, vals := range m {
		out = append(out, catalog.Entry{Key: k, Values: vals})
	}
	slices.SortFunc(out, func(a, b catalog.Entry) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// killSchedule draws a schedule from seed and the state after each of
// its prefixes (states[i] after i calls).
func killSchedule(seed int64) (ops []killOp, states []killState) {
	r := rand.New(rand.NewSource(seed))
	model := killModel{}
	var ring []PeerState
	states = append(states, killState{})
	newRing := func() []PeerState {
		n := 1 + r.Intn(5)
		out := make([]PeerState, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, PeerState{ID: fmt.Sprintf("peer%02d", r.Intn(40)), Capacity: 1 + r.Intn(100)})
		}
		slices.SortFunc(out, func(a, b PeerState) int { return strings.Compare(a.ID, b.ID) })
		return slices.CompactFunc(out, func(a, b PeerState) bool { return a.ID == b.ID })
	}
	for len(ops) < 140 {
		var op killOp
		switch c := r.Intn(20); {
		case c < 11:
			op = killOp{kind: 'a', key: fmt.Sprintf("svc%02d", r.Intn(24)), value: fmt.Sprintf("ep%d", r.Intn(4))}
		case c < 15:
			op = killOp{kind: 'a', remove: true, key: fmt.Sprintf("svc%02d", r.Intn(24)), value: fmt.Sprintf("ep%d", r.Intn(4))}
			if vals := model[op.key]; len(vals) > 0 {
				op.value = vals[r.Intn(len(vals))]
			}
		case c < 17 || ring == nil:
			op = killOp{kind: 't', ring: ring}
			if ring == nil || r.Intn(3) == 0 {
				op.ring = newRing()
			}
		default:
			op = killOp{kind: 's'}
		}
		if op.kind == 'a' {
			model.apply(op.remove, op.key, op.value)
		}
		if op.kind == 't' {
			ring = op.ring
		}
		ops = append(ops, op)
		states = append(states, killState{ring: ring, cat: model.sorted()})
	}
	return ops, states
}

// commitFunc ends a tick the journal cannot carry: it commits p, whose
// capture is the catalogue cat.
type commitFunc func(p *PendingSnapshot, ring []PeerState, cat []catalog.Entry) error

// commitCapture commits the catalogue captured with the tick.
func commitCapture(p *PendingSnapshot, ring []PeerState, cat []catalog.Entry) error {
	_, err := p.Commit(ring, entrySource(cat))
	return err
}

// runKillChild is the child's side: it opens the store in dir and runs
// the schedule of seed, reading one byte from fd 4 before each call and
// writing one ack line to fd 3 after it, then waits to be killed.
func runKillChild(t *testing.T, arg string, commit commitFunc) {
	var dir string
	var seed int64
	if _, err := fmt.Sscan(arg, &dir, &seed); err != nil {
		t.Fatal(err)
	}
	acks, gate := os.NewFile(3, "acks"), bufio.NewReader(os.NewFile(4, "gate"))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops, states := killSchedule(seed)
	for i, op := range ops {
		if _, err := gate.ReadByte(); err != nil {
			os.Exit(0) // the parent is done with this child
		}
		switch op.kind {
		case 'a':
			err = s.Append(op.remove, op.key, op.value)
		case 's':
			err = s.SyncJournal()
		case 't':
			if s.JournalCarries(op.ring) {
				err = s.SyncJournal()
				break
			}
			var p *PendingSnapshot
			if p, err = s.BeginSnapshot(); err == nil {
				err = commit(p, op.ring, states[i].cat)
			}
		}
		if err != nil {
			t.Fatalf("call %d (%+v): %v", i, op, err)
		}
		fmt.Fprintln(acks, i)
	}
	time.Sleep(time.Minute)
}

// killSweep runs killPoints children of the test named name, each on its
// own directory and seed, kills each at its seeded point and holds what
// Load returns to the schedule; rounds counts the test's sweeps in this
// process, each of which takes the next block of seeds.
func killSweep(t *testing.T, name string, rounds *atomic.Int64, commit commitFunc) {
	if arg := os.Getenv(killChildEnv); arg != "" {
		runKillChild(t, arg, commit)
		return
	}
	round := rounds.Add(1) - 1
	start, inside := time.Now(), 0
	for i := int64(0); i < killPoints; i++ {
		if killOne(t, name, round*killPoints+i, commit) {
			inside++
		}
	}
	t.Logf("%d kill points (seeds %d–%d), %d of them inside a call, in %v", killPoints,
		round*killPoints, (round+1)*killPoints-1, inside, time.Since(start).Round(time.Millisecond))
}

// killOne runs one child to its kill point and checks the directory it
// leaves; it reports whether the kill landed before the call it was
// aimed into returned. Half the kill points aim into a tick, where the
// image write, its fsyncs and the rename leave a window of milliseconds.
func killOne(t *testing.T, name string, seed int64, commit commitFunc) bool {
	t.Helper()
	dir := t.TempDir()
	ops, states := killSchedule(seed)
	r := rand.New(rand.NewSource(^seed))
	at := r.Intn(len(ops) + 1) // calls acknowledged before the kill is armed
	delay := time.Duration(r.Intn(100)) * time.Microsecond
	if r.Intn(2) == 0 {
		var ticks []int
		for i, op := range ops {
			if op.kind == 't' {
				ticks = append(ticks, i)
			}
		}
		at, delay = ticks[r.Intn(len(ticks))], time.Duration(r.Intn(1000))*time.Microsecond
	}

	ackR, ackW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	gateR, gateW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir+" "+strconv.FormatInt(seed, 10))
	cmd.ExtraFiles = []*os.File{ackW, gateR}
	var stderr strings.Builder
	cmd.Stderr, cmd.Stdout = &stderr, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ackW.Close()
	gateR.Close()
	acks := bufio.NewScanner(ackR)
	acked := 0
	for ; acked < at; acked++ {
		if _, err := gateW.Write([]byte{1}); err != nil {
			break
		}
		if !acks.Scan() {
			break
		}
	}
	if acked < at {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("seed %d: the child died after %d acks:\n%s", seed, acked, stderr.String())
	}
	if at < len(ops) {
		gateW.Write([]byte{1}) // start the next call, and kill into it
		for t0 := time.Now(); time.Since(t0) < delay; {
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	gateW.Close()
	for acks.Scan() {
		acked++
	}
	ackR.Close()
	inside := acked == at && at < len(ops)

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("seed %d, killed after %d acks: reopen: %v", seed, acked, err)
	}
	defer s.Close()
	st, err := s.Load()
	if err != nil {
		t.Fatalf("seed %d, killed after %d acks: load: %v", seed, acked, err)
	}
	got := loadedState(t, st)
	st.Release()
	for p := acked; p <= len(ops); p++ {
		if statesEqual(got, states[p]) {
			return inside
		}
	}
	t.Fatalf("seed %d, killed after %d acks (%d calls): the loaded state is no state after %d or more calls\n got ring %v\n got %v\nwant ring %v\nwant %v",
		seed, acked, len(ops), acked, got.ring, got.cat, states[acked].ring, states[acked].cat)
	return false
}

// loadedState replays a loaded state into the model: the image's
// catalogue, then every journal record in order.
func loadedState(t *testing.T, st *LoadedState) killState {
	t.Helper()
	model := killModel{}
	if st.Snapshot != nil {
		for _, e := range nodeList(t, st.Snapshot) {
			model[e.Key] = slices.Clone(e.Values)
		}
	}
	for _, rec := range st.Journal {
		model.apply(rec.Remove, rec.Key, rec.Value)
	}
	return killState{ring: st.Peers, cat: model.sorted()}
}

func statesEqual(a, b killState) bool {
	ring := len(a.ring) == 0 && len(b.ring) == 0 || reflect.DeepEqual(a.ring, b.ring)
	return ring && (len(a.cat) == 0 && len(b.cat) == 0 || reflect.DeepEqual(a.cat, b.cat))
}

// TestKillAnywhere SIGKILLs a process that drives a Store — appends,
// ring changes through JournalCarries, SyncJournal, BeginSnapshot and
// Commit — at seeded points, and holds Load to the acknowledged history.
func TestKillAnywhere(t *testing.T) {
	killSweep(t, "TestKillAnywhere", &killAnywhereRounds, commitCapture)
}

var killAnywhereRounds atomic.Int64
