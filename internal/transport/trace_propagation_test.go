package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
	"dlpt/internal/workload"
)

// startTracedTCP starts an n-listener cluster whose three hosts share
// one recorder and one metrics bundle, the way dlptd wires a daemon.
func startTracedTCP(t *testing.T, n int) (*Cluster, *trace.Recorder, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(trace.DefaultCapacity)
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 1 << 20
	}
	c, err := StartOpts(keys.LowerAlnum, caps, 3, Options{Options: overlay.Options{
		Obs:   obs.NewMetrics(reg),
		Trace: rec,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, rec, reg
}

// spansOf returns the retained spans belonging to one trace.
func spansOf(rec *trace.Recorder, tid uint64) []trace.Span {
	var out []trace.Span
	for _, s := range rec.Spans() {
		if s.Trace == tid {
			out = append(out, s)
		}
	}
	return out
}

// TestQueryTraceFormsSingleTree pins the tentpole contract: a limit-10
// streaming query over a 3-listener cluster records exactly one
// connected span tree — every QROUTE leg and every walker phase span,
// on whichever host it ran, carries the client root's trace id and
// parents back to it with no orphans.
func TestQueryTraceFormsSingleTree(t *testing.T) {
	c, rec, _ := startTracedTCP(t, 3)
	corpus := workload.GridCorpus(80)
	for _, k := range corpus {
		if err := c.Register(k, "ep:"+string(k)); err != nil {
			t.Fatal(err)
		}
	}

	began := time.Now()
	ws, err := c.StreamQuery(context.Background(), core.QuerySpec{
		Prefix: corpus[0][:1], Limit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		if _, ok := ws.Next(); !ok {
			break
		}
		got++
	}
	if err := ws.Err(); err != nil {
		t.Fatal(err)
	}
	ws.Close()
	elapsed := time.Since(began)
	if got == 0 || got > 10 {
		t.Fatalf("limit-10 query yielded %d keys", got)
	}

	// Exactly one root span with phase "query" exists, and it owns the
	// whole trace.
	var roots []trace.Span
	for _, s := range rec.Spans() {
		if s.Phase == "query" && s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("got %d query roots, want 1", len(roots))
	}
	root := roots[0]
	spans := spansOf(rec, root.Trace)
	if len(spans) < 2 {
		t.Fatalf("trace %x retained only %d spans; hops were not traced", root.Trace, len(spans))
	}
	// Every span in the trace parents back to the root: the parent
	// chain never leaves the trace and never dangles.
	byID := make(map[uint64]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	sawWalk := false
	for _, s := range spans {
		if s.Phase == obs.PhaseWalk {
			sawWalk = true
		}
		cur := s
		for hops := 0; cur.Parent != 0; hops++ {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %x (phase %s) has parent %x outside the trace", cur.ID, cur.Phase, cur.Parent)
			}
			if hops > len(spans) {
				t.Fatal("parent cycle in span tree")
			}
			cur = p
		}
		if cur.ID != root.ID {
			t.Fatalf("span %x (phase %s) roots at %x, not the query root", s.ID, s.Phase, cur.ID)
		}
	}
	if !sawWalk {
		t.Fatal("no walk-phase span in the query trace")
	}

	// The reassembled forest agrees: one tree for this trace, no
	// orphan promotion.
	treeRoots := 0
	for _, n := range rec.Trees() {
		if n.Trace != root.Trace {
			continue
		}
		treeRoots++
		if n.Orphan {
			t.Fatalf("query trace root is an orphan: %+v", n.Span)
		}
	}
	if treeRoots != 1 {
		t.Fatalf("trace %x reassembled into %d trees, want 1", root.Trace, treeRoots)
	}

	// The walker's phase spans are disjoint slices of one traversal:
	// their durations sum within the measured query latency.
	var phaseSum time.Duration
	for _, s := range spans {
		switch s.Phase {
		case obs.PhaseClimb, obs.PhaseDescend, obs.PhaseWalk:
			phaseSum += s.Duration
		}
	}
	if phaseSum > elapsed {
		t.Fatalf("phase durations sum to %v, exceeding measured latency %v", phaseSum, elapsed)
	}
	if root.Duration > elapsed {
		t.Fatalf("root span %v longer than wall clock %v", root.Duration, elapsed)
	}
}

// TestDiscoverTraceCrossesHosts pins the discovery half: relay legs
// recorded by the serving listeners join the client root's trace.
func TestDiscoverTraceCrossesHosts(t *testing.T) {
	c, rec, _ := startTracedTCP(t, 3)
	corpus := workload.GridCorpus(60)
	for _, k := range corpus {
		if err := c.Register(k, string(k)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Discover(corpus[7])
	if err != nil || !res.Found {
		t.Fatalf("discover: %v found=%v", err, res.Found)
	}
	var root trace.Span
	for _, s := range rec.Spans() {
		if s.Phase == obs.PhaseDiscover && s.Parent == 0 {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatal("no discover root span recorded")
	}
	// Every wire transfer is one relay span, and a hop ends its span
	// once it has passed the frame on (or answered), so the spans may
	// trail the result by a moment.
	relays := func() (n int) {
		for _, s := range spansOf(rec, root.Trace) {
			if s.Phase == obs.PhaseRelay {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(2 * time.Second); relays() < res.PhysicalHops; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("discover trace has %d relay spans for %d physical hops", relays(), res.PhysicalHops)
		}
	}
	for _, n := range rec.Trees() {
		if n.Trace == root.Trace && n.Orphan {
			t.Fatalf("orphan span in discover trace: %+v", n.Span)
		}
	}
}

// TestUntracedFrameCompat pins wire compatibility in both directions:
// a frame without the trace extension (an untraced peer) decodes
// exactly as before the extension existed, a flagged frame carries its
// context, and an invalid context degrades to the plain format.
func TestUntracedFrameCompat(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	cfc := newFrameConn(client)
	sfc := newFrameConn(server)

	payload := []byte("legacy-payload")
	roundTrip := func(write func() error) (byte, uint64, trace.Context, []byte) {
		t.Helper()
		errc := make(chan error, 1)
		go func() { errc <- write() }()
		typ, id, tc, p, err := sfc.readFrame()
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if err := <-errc; err != nil {
			t.Fatalf("write: %v", err)
		}
		return typ, id, tc, append([]byte(nil), p...)
	}

	// Untraced peer: plain frame, no extension.
	typ, id, tc, p := roundTrip(func() error {
		return cfc.finishFrame(append(beginFrame(nil, frameRequest, 7), payload...))
	})
	if typ != frameRequest || id != 7 || tc.Valid() || string(p) != string(payload) {
		t.Fatalf("plain frame: typ=%d id=%d tc=%+v payload=%q", typ, id, tc, p)
	}

	// Traced frame: flag set on the wire, context recovered, payload
	// intact after the 16-byte prefix is stripped.
	want := trace.Context{Trace: 0xdeadbeef, Span: 0x1234}
	typ, id, tc, p = roundTrip(func() error {
		return cfc.finishFrame(append(beginTracedFrame(nil, frameQRoute, 9, want), payload...))
	})
	if typ != frameQRoute || id != 9 || tc != want || string(p) != string(payload) {
		t.Fatalf("traced frame: typ=%d id=%d tc=%+v payload=%q", typ, id, tc, p)
	}

	// An invalid context degrades to the plain, pre-extension format —
	// byte-identical, so untraced receivers never see the flag.
	plain := append(beginFrame(nil, frameQuery, 3), payload...)
	degraded := append(beginTracedFrame(nil, frameQuery, 3, trace.Context{}), payload...)
	if string(plain) != string(degraded) {
		t.Fatalf("zero-context traced frame differs from plain frame:\n%x\n%x", plain, degraded)
	}

	// A flagged frame that is too short for its context is a protocol
	// violation, not a silent misparse.
	go func() {
		buf := beginFrame(nil, frameRequest|frameTraceFlag, 1)
		buf = append(buf, 1, 2, 3) // 3 bytes < frameTraceSize
		_ = cfc.finishFrame(buf)
	}()
	if _, _, _, _, err := sfc.readFrame(); err == nil {
		t.Fatal("truncated trace context decoded without error")
	}
}
