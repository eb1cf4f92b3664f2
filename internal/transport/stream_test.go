package transport

// The STREAM data path: the front-coded frame codec, the slow-started
// credit window as seen on the wire, and what a stream costs per key
// delivered and per stream abandoned.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/trace"
)

// TestStreamBatchFrontCoding round-trips the shapes front coding has
// to get right and feeds the decoder the frames it has to refuse.
func TestStreamBatchFrontCoding(t *testing.T) {
	long := keys.Key(strings.Repeat("x", 300))
	progress := streamEnd{QueryResult: counters(1<<20, 2, 3)}
	for name, batch := range map[string][]keys.Key{
		"empty":              {},
		"one key":            {"pdgesv"},
		"empty key":          {"", "a"},
		"ascending":          {"dgemm", "dgemv", "dgetrf", "sgemm"},
		"prefix of previous": {"abc", "ab", "a", ""},
		"repeated key":       {"abc", "abc", "abd"},
		"unsorted":           {"zz", "aa", "mm"},
		"long shared prefix": {long, long + "a", long + "b", long[:256]},
	} {
		enc := appendStreamBatch(nil, batch, &progress)
		got, gotP, err := decodeStreamBatch(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(batch) || (len(batch) > 0 && !reflect.DeepEqual(got, batch)) {
			t.Fatalf("%s: got %q, want %q", name, got, batch)
		}
		if !reflect.DeepEqual(gotP, progress) {
			t.Fatalf("%s: progress %+v, want %+v", name, gotP, progress)
		}
		// Every proper prefix of a valid payload is a truncated frame.
		for i := 0; i < len(enc); i++ {
			if _, _, err := decodeStreamBatch(enc[:i]); err == nil {
				t.Fatalf("%s: payload cut at %d of %d bytes decoded without error", name, i, len(enc))
			}
		}
	}
	// The long shared prefix must not be repeated on the wire.
	if enc := appendStreamBatch(nil, []keys.Key{long, long + "a", long + "b"}, &progress); len(enc) > len(long)+32 {
		t.Fatalf("3 keys sharing %d bytes encoded in %d bytes", len(long), len(enc))
	}

	head := func(n uint64) []byte {
		b := []byte{0, 0, 0} // counters
		return binary.AppendUvarint(b, n)
	}
	key := func(b []byte, shared uint64, suffix string) []byte {
		w := wire{b: binary.AppendUvarint(b, shared)}
		w.str(&suffix)
		return w.b
	}
	bomb := key(head(64), 0, strings.Repeat("x", 1<<20))
	for i := 1; i < 64; i++ {
		bomb = key(bomb, 1<<20, "")
	}
	for name, p := range map[string][]byte{
		"shared on the first key":          key(head(1), 1, "a"),
		"shared longer than previous key":  key(key(head(2), 0, "ab"), 3, "c"),
		"shared overflows":                 key(key(head(2), 0, "ab"), 1<<63, "c"),
		"suffix longer than payload":       append(head(1), 0, 9, 'a'),
		"count beyond payload":             key(head(2), 0, "a"),
		"count beyond the frame ceiling":   key(head(streamFrameKeys+1), 0, "a"),
		"keys expand past the frame limit": bomb,
	} {
		if ks, _, err := decodeStreamBatch(p); err == nil {
			t.Fatalf("%s: decoded %d keys without error", name, len(ks))
		}
	}
}

// scanAll drains an unlimited completion of prefix and returns the
// keys.
func scanAll(t *testing.T, c *Cluster, prefix keys.Key) []keys.Key {
	t.Helper()
	s, err := c.StreamQuery(context.Background(), core.QuerySpec{Prefix: prefix})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []keys.Key
	for k, ok := s.Next(); ok; k, ok = s.Next() {
		out = append(out, k)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAllocsPerStreamKey pins what a delivered key costs: its bytes
// copied into the frame and out into the frame's arena, and a share of
// the two allocations per frame. A catalogue entry, a string or a
// trie node per key would show as one allocation or more. The ceiling
// sits a fifth above the measured 0.022 allocations per key (45 for a
// drained 2,000-key scan of 7 frames, route and stream set-up
// included — 48 before the server filled its frames from one
// preallocated buffer; the LOUDS envelope took 6.7 per key).
func TestAllocsPerStreamKey(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not stable under the race detector")
	}
	c := startTCP(t, 8)
	const nkeys = 2000
	registerCorpus(t, c, nkeys)
	if got := scanAll(t, c, ""); len(got) != nkeys { // warm the pool: dials allocate
		t.Fatalf("scan delivered %d keys, want %d", len(got), nkeys)
	}
	ctx := context.Background()
	perScan := testing.AllocsPerRun(50, func() {
		s, err := c.StreamQuery(ctx, core.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			n++
		}
		if err := s.Err(); err != nil || n != nkeys {
			t.Fatalf("scan delivered %d keys, err %v", n, err)
		}
		s.Close()
	})
	perKey := perScan / nkeys
	t.Logf("%.0f allocs per drained %d-key scan, %.3f per key", perScan, nkeys, perKey)
	if perKey > 0.027 {
		t.Fatalf("%.3f allocations per delivered key, ceiling 0.027", perKey)
	}

	// The decoder alone: the key slice and the arena, whatever the
	// frame holds.
	batch := scanAll(t, c, "")[:streamFrameKeys]
	enc := appendStreamBatch(nil, batch, &streamEnd{})
	if perFrame := testing.AllocsPerRun(100, func() {
		if _, _, err := decodeStreamBatch(enc); err != nil {
			t.Fatal(err)
		}
	}); perFrame > 2 {
		t.Fatalf("%.0f allocations to decode one %d-key frame, want 2", perFrame, len(batch))
	}
}

// settledVisits waits for the server-side walks to stop and returns
// the visit counter.
func settledVisits(t *testing.T, c *Cluster) int64 {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		v := c.QueryVisits()
		time.Sleep(50 * time.Millisecond)
		if c.QueryVisits() == v {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatal("server-side traversal still running")
		}
	}
}

// TestAbandonedStreamBound pins what an abandoned stream costs the
// server: the consumer reads one key and closes, and by then the walk
// may have filled the first frame and — the ACK of the first frame
// racing the CANCEL — the second, never a whole window.
func TestAbandonedStreamBound(t *testing.T) {
	c := startTCP(t, 8)
	registerCorpus(t, c, 6000)
	ctx := context.Background()

	// Reference: a walk limited to the keys of the first two frames.
	twoFrames := streamInitKeys + 2*streamInitKeys
	v0 := c.QueryVisits()
	s, err := c.StreamQuery(ctx, core.QuerySpec{Limit: twoFrames})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	s.Close()
	if n != twoFrames {
		t.Fatalf("limited walk delivered %d keys, want %d", n, twoFrames)
	}
	bound := settledVisits(t, c) - v0
	// The route to the covering node is counted too and starts at a
	// random entry node: allow its length to differ between the walks.
	const routeSlack = 32

	for trial := 0; trial < 5; trial++ {
		v0 = c.QueryVisits()
		s, err := c.StreamQuery(ctx, core.QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Next(); !ok {
			t.Fatalf("no first key: %v", s.Err())
		}
		s.Close()
		if got := settledVisits(t, c) - v0; got > bound+routeSlack {
			t.Fatalf("abandoned stream cost %d visits, two frames cost %d", got, bound)
		}
	}
}

// serverWalks counts the goroutines serving a QUERY stream.
func serverWalks() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte(").serveQuery("))
}

// TestCancelledStreamFreesServerWithoutClose: a consumer whose context
// ends mid-stream and who never calls Close still frees the server-side
// walk — the stream's end sends the CANCEL, however the stream ends.
func TestCancelledStreamFreesServerWithoutClose(t *testing.T) {
	c := startTCP(t, 8)
	registerCorpus(t, c, 6000) // far more than a credit window
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := c.StreamQuery(ctx, core.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Next(); !ok {
		t.Fatalf("no first key: %v", s.Err())
	}
	if n := serverWalks(); n != 1 {
		t.Fatalf("%d server-side walks mid-stream, want 1", n)
	}
	cancel()
	for _, ok := s.Next(); ok; _, ok = s.Next() {
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", s.Err())
	}
	for deadline := time.Now().Add(2 * time.Second); serverWalks() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server-side walk is still parked 2s after its stream ended")
		}
	}
}

// wireClient speaks the stream protocol by hand on a raw connection to
// one of the cluster's listeners.
type wireClient struct {
	t  *testing.T
	fc *frameConn
}

func dialWire(t *testing.T, c *Cluster) *wireClient {
	t.Helper()
	var addr string
	for _, a := range c.Addrs() {
		addr = a
		break
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{t: t, fc: newFrameConn(conn)}
}

// rootQuery is the QUERY a client sends for a catalogue-wide walk once
// its QROUTE phase has resolved the covering node: the root.
func rootQuery(t *testing.T, c *Cluster, limit int) *queryReq {
	t.Helper()
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	root, ok := c.Net.Root()
	if !ok {
		t.Fatal("empty overlay")
	}
	return &queryReq{QuerySpec: core.QuerySpec{Limit: limit}, Entry: root, Walk: true}
}

// next reads one frame of stream id: a STREAM batch, the STREAM_END
// (end != nil), or ok == false when nothing arrives within wait (the
// server is out of credit).
func (w *wireClient) next(id uint64, wait time.Duration) (batch []keys.Key, end *streamEnd, ok bool) {
	w.t.Helper()
	_ = w.fc.conn.SetReadDeadline(time.Now().Add(wait))
	typ, gotID, _, payload, err := w.fc.readFrame()
	if ne, isNet := err.(net.Error); isNet && ne.Timeout() {
		return nil, nil, false
	}
	if err != nil {
		w.t.Fatal(err)
	}
	if gotID != id {
		w.t.Fatalf("frame for stream %d, want %d", gotID, id)
	}
	switch typ {
	case frameStream:
		batch, _, err := decodeStreamBatch(payload)
		if err != nil {
			w.t.Fatal(err)
		}
		return batch, nil, true
	case frameStreamEnd:
		end = &streamEnd{}
		if err := Unmarshal(payload, end); err != nil {
			w.t.Fatal(err)
		}
		return nil, end, true
	}
	w.t.Fatalf("unexpected frame type %d", typ)
	return nil, nil, false
}

// TestStreamSlowStart watches the credit window from the consumer's
// side of the socket. Before any ACK the server writes exactly one
// frame of streamInitKeys keys — the first key is one short step away
// — and stalls; every ACK doubles what it may send, first as frame
// size up to streamFrameKeys, then as frames in flight; CANCEL ends
// the stream. The frames concatenate to the catalogue in order.
func TestStreamSlowStart(t *testing.T) {
	c := startTCP(t, 4)
	corpus := registerCorpus(t, c, 6000)
	want := append([]keys.Key(nil), corpus...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	w := dialWire(t, c)
	const id = 7
	if err := w.fc.writeQuery(id, trace.Context{}, rootQuery(t, c, 0)); err != nil {
		t.Fatal(err)
	}
	const stall = 100 * time.Millisecond
	var got []keys.Key
	// One ACK each: 32, 64, ... up to the frame ceiling.
	for size := streamInitKeys; size <= streamFrameKeys; size *= 2 {
		batch, _, ok := w.next(id, 5*time.Second)
		if !ok || len(batch) != size {
			t.Fatalf("frame of %d keys (ok=%v), want %d", len(batch), ok, size)
		}
		got = append(got, batch...)
		if extra, _, ok := w.next(id, stall); ok {
			t.Fatalf("server wrote %d more keys without credit after a %d-key frame", len(extra), size)
		}
		if err := w.fc.writeStreamAck(id); err != nil {
			t.Fatal(err)
		}
	}
	// Beyond the ceiling the window buys frames in flight: that ACK
	// doubled it to two full frames, the next one to four.
	for _, inflight := range []int{2, streamMaxInflight} {
		for i := 0; i < inflight; i++ {
			batch, _, ok := w.next(id, 5*time.Second)
			if !ok || len(batch) != streamFrameKeys {
				t.Fatalf("frame of %d keys (ok=%v), want %d", len(batch), ok, streamFrameKeys)
			}
			got = append(got, batch...)
		}
		if extra, _, ok := w.next(id, stall); ok {
			t.Fatalf("server wrote %d more keys with %d frames unacknowledged", len(extra), inflight)
		}
		for i := 0; i < inflight; i++ {
			if err := w.fc.writeStreamAck(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatal("frames do not concatenate to the sorted catalogue")
	}
	if err := w.fc.writeCancel(id); err != nil {
		t.Fatal(err)
	}
	for {
		_, end, ok := w.next(id, 5*time.Second)
		if !ok {
			t.Fatal("no STREAM_END after CANCEL")
		}
		if end != nil {
			break
		}
	}
}

// TestStreamEndRidesLastFrame: a walk that ends inside its first frame
// (every limit-10 completion) answers with the STREAM and STREAM_END
// frames back to back — the consumer needs no ACK to see the end.
func TestStreamEndRidesLastFrame(t *testing.T) {
	c := startTCP(t, 4)
	registerCorpus(t, c, 500)
	w := dialWire(t, c)
	const id = 9
	if err := w.fc.writeQuery(id, trace.Context{}, rootQuery(t, c, 10)); err != nil {
		t.Fatal(err)
	}
	batch, _, ok := w.next(id, 5*time.Second)
	if !ok || len(batch) != 10 {
		t.Fatalf("first frame: %d keys (ok=%v), want 10", len(batch), ok)
	}
	if _, end, ok := w.next(id, 5*time.Second); !ok || end == nil || end.Err != "" {
		t.Fatalf("no clean STREAM_END behind the last STREAM (ok=%v end=%+v)", ok, end)
	}
}

// TestQueryWithoutWalkRefused: a QUERY whose route phase never ran
// (Walk unset — no client sends one) walks nothing; the stream ends at
// once with an in-band refusal and the connection stays usable.
func TestQueryWithoutWalkRefused(t *testing.T) {
	c := startTCP(t, 4)
	registerCorpus(t, c, 100)
	w := dialWire(t, c)
	unrouted := rootQuery(t, c, 10)
	unrouted.Walk = false
	if err := w.fc.writeQuery(3, trace.Context{}, unrouted); err != nil {
		t.Fatal(err)
	}
	if batch, end, ok := w.next(3, 5*time.Second); !ok || end == nil || end.Err == "" {
		t.Fatalf("unrouted QUERY not refused: %d keys, ok=%v end=%+v", len(batch), ok, end)
	}
	if err := w.fc.writeQuery(4, trace.Context{}, rootQuery(t, c, 10)); err != nil {
		t.Fatal(err)
	}
	if batch, _, ok := w.next(4, 5*time.Second); !ok || len(batch) != 10 {
		t.Fatalf("routed QUERY after the refusal: %d keys (ok=%v), want 10", len(batch), ok)
	}
}

// TestDemuxSkipsClosedStream: a STREAM frame still in flight for a
// stream its consumer already closed is dropped by id, undecoded —
// even a frame that would not decode leaves the shared connection and
// the streams beside it alone.
func TestDemuxSkipsClosedStream(t *testing.T) {
	c := startTCP(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pc, err := c.pool.get(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := newFrameConn(conn)

	closed, _, err := c.pool.openStream(pc)
	if err != nil {
		t.Fatal(err)
	}
	live, cs, err := c.pool.openStream(pc)
	if err != nil {
		t.Fatal(err)
	}
	pc.forgetStream(closed)
	if err := server.writeRaw(frameStream, closed, []byte{0xff}); err != nil {
		t.Fatal(err)
	}
	if err := server.writeStream(live, []keys.Key{"a", "ab"}, &streamEnd{QueryResult: counters(0, 0, 2)}, true); err != nil {
		t.Fatal(err)
	}
	for _, wantEnd := range []bool{false, true} {
		select {
		case msg := <-cs.ch:
			if msg.err != nil {
				t.Fatalf("live stream failed: %v", msg.err)
			}
			if msg.end != wantEnd || (!wantEnd && !reflect.DeepEqual(msg.batch, []keys.Key{"a", "ab"})) {
				t.Fatalf("live stream got %+v", msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("live stream starved")
		}
	}
}
