package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"dlpt/internal/catalog"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/persist"
	"dlpt/internal/trace"
)

// fuzzConn adapts an in-memory reader/writer pair to net.Conn for the
// frame layer (which only uses Read, Write and Close).
type fuzzConn struct {
	r io.Reader
	w io.Writer
}

func (c *fuzzConn) Read(p []byte) (int, error) {
	if c.r == nil {
		return 0, io.EOF
	}
	return c.r.Read(p)
}

func (c *fuzzConn) Write(p []byte) (int, error) {
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

func (c *fuzzConn) Close() error                       { return nil }
func (c *fuzzConn) LocalAddr() net.Addr                { return nil }
func (c *fuzzConn) RemoteAddr() net.Addr               { return nil }
func (c *fuzzConn) SetDeadline(t time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzFrameDecode drives arbitrary bytes through every payload
// decoder and through the frame reader itself (header parsing, the
// payload length guard, the 0x80 trace-header extension). The
// decoders own the trust boundary with remote peers: whatever the
// bytes, they must return an error rather than panic or over-allocate,
// and whatever decodes must encode to bytes that decode to the same.
func FuzzFrameDecode(f *testing.F) {
	// Valid payloads of each shape seed the corpus.
	var req hop
	f.Add(Marshal(&hop{Key: "abc", At: "ab", Logical: 3, Physical: 2, Redirects: 1}))
	f.Add(Marshal(&hop{Key: "abc", Down: true, At: "ab", Physical: 1, Origin: 1 << 40, ReplyTo: "127.0.0.1:4100"}))
	f.Add(Marshal(&reply{Found: true, Values: []string{"v1", "v2"}, Logical: 7, Err: "boom"}))
	f.Add(Marshal(&reply{Physical: 2, Err: "dial refused", Retry: true}))
	f.Add(Marshal(&reply{Found: true, Anchor: "anc", Logical: 4, Physical: 2, Visited: 5}))
	f.Add(Marshal(&queryReq{QuerySpec: core.QuerySpec{Range: true, Lo: "a", Hi: "z", Limit: 5}, Entry: "m", Walk: true}))
	f.Add(Marshal(&hop{Query: true, Key: "anc", Down: true, Visited: 9, At: "at"}))
	f.Add(Marshal(&hop{Query: true, Key: "anc", Visited: 1, At: "at", Origin: 77, ReplyTo: "[::1]:9"}))
	f.Add(Marshal(&streamEnd{QueryResult: counters(1, 2, 3), Err: "end"}))
	// STREAM payloads: front-coded keys, an empty batch, and a key
	// claiming to share more bytes than its predecessor has.
	f.Add(appendStreamBatch(nil, []keys.Key{"dgemm", "dgemv", "dgetrf", "dge", "sgemm"}, &streamEnd{QueryResult: counters(4, 2, 9)}))
	f.Add(appendStreamBatch(nil, nil, &streamEnd{QueryResult: counters(0, 0, 1)}))
	f.Add([]byte{0, 0, 0, 2, 0, 2, 'a', 'b', 3, 1, 'c'})
	// REPLICA payloads: a batch in ν_P order, not sorted, and an empty one.
	f.Add(Marshal(&replicaBatch{
		From: "p1", To: "p2",
		Infos: []core.Replica{{Key: "k", Data: []string{"d"}, LoadCur: 2}, {Key: "a", LoadPrev: 300}},
	}))
	f.Add(Marshal(&replicaBatch{From: "p1", To: "p2"}))
	// Frame-level seeds: a whole valid frame, a traced frame, a
	// truncated trace extension, and a hostile length prefix.
	fc := &frameConn{conn: &fuzzConn{}}
	var stream bytes.Buffer
	fc.conn = &fuzzConn{w: &stream}
	if err := fc.writeRaw(frameRequest, 1, Marshal(&req)); err != nil {
		f.Fatal(err)
	}
	buf := beginTracedFrame(nil, frameRequest, 2, trace.Context{Trace: 7, Span: 9})
	buf = appendPayload(buf, &req)
	if err := fc.finishFrame(buf); err != nil {
		f.Fatal(err)
	}
	f.Add(stream.Bytes())
	truncated := beginTracedFrame(nil, frameRequest, 3, trace.Context{Trace: 7, Span: 9})
	binary.BigEndian.PutUint32(truncated[9:13], 8) // claims 8 < frameTraceSize
	f.Add(append(truncated[:frameHeaderSize], 1, 2, 3, 4, 5, 6, 7, 8))
	hostile := beginFrame(nil, frameResponse, 4)
	binary.BigEndian.PutUint32(hostile[9:13], maxFramePayload+1)
	f.Add(hostile)
	// The control plane: one valid payload per message. The daemon
	// feeds every one of these bytes from another process.
	mirror := Mirror{
		Epoch: 2, Seq: 41, StewardAddr: "[::1]:7",
		Members: []Member{{ID: "m1", Addr: "[::1]:7", Capacity: 8}, {ID: "m2", Addr: "[::1]:9", Capacity: 8}},
		Image: persist.AppendImage(nil, 0,
			[]persist.PeerState{{ID: "m1", Capacity: 8}, {ID: "m2", Capacity: 8}}, fuzzCatalogue{}),
	}
	apply := &ApplyRecord{Seq: 41, Epoch: 2, Op: OpJoin, Key: "k", Value: "v", ID: "m2", Capacity: 8, Addr: "[::1]:9"}
	for _, m := range []Message{
		&JoinRequest{Version: HandshakeVersion, Alphabet: "ab", Placement: "KC", Addr: "[::1]:9", Capacity: 8},
		&HelloInfo{Version: HandshakeVersion, Alphabet: "ab", Placement: "KC", AssignedID: "m2", Mirror: mirror},
		&mirror,
		&LeaveNotice{ID: "m2", Addr: "[::1]:9", Epoch: 2},
		apply,
		&ElectRequest{Epoch: 3, ID: "m2", Addr: "[::1]:9", Seq: 41},
		&ElectReply{Granted: true, Epoch: 3, Seq: 40, StewardAddr: "[::1]:7", Err: "e"},
		&EpochOpen{Epoch: 3, StewardID: "m2", StewardAddr: "[::1]:9", Seq: 41},
		&EpochOpenReply{Seq: 40, Err: "e"},
		&FetchRequest{From: 40},
		&FetchReply{Records: []*ApplyRecord{apply}, Err: "e"},
		&Ack{Err: "refused"},
	} {
		f.Add(Marshal(m))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range freshMessages {
			m := fresh()
			if Unmarshal(data, m) != nil {
				continue
			}
			again := fresh()
			if err := Unmarshal(Marshal(m), again); err != nil || !reflect.DeepEqual(m, again) {
				t.Fatalf("%T re-encoded: decoded %+v (err %v), want %+v", m, again, err, m)
			}
			// A mirror that decodes carries an image the installer will
			// parse: that, too, must refuse rather than panic.
			var image []byte
			switch m := m.(type) {
			case *Mirror:
				image = m.Image
			case *HelloInfo:
				image = m.Image
			}
			if snap, err := persist.ParseImage(image); image != nil && err == nil {
				_ = snap.Ascend(func(catalog.Entry) bool { return true })
			}
		}
		if batch, _, err := decodeStreamBatch(data); err == nil {
			// Whatever decodes re-encodes to a payload that decodes to
			// the same keys (the encoder picks the longest shared
			// prefix, the input need not have).
			again, _, err := decodeStreamBatch(appendStreamBatch(nil, batch, &streamEnd{}))
			if err != nil || len(again) != len(batch) {
				t.Fatalf("re-encoded stream batch: %d keys, err %v, want %d", len(again), err, len(batch))
			}
			for i := range batch {
				if again[i] != batch[i] {
					t.Fatalf("re-encoded stream key %d: %q != %q", i, again[i], batch[i])
				}
			}
		}

		// The frame reader over the same bytes as a connection stream:
		// it must terminate with an error or EOF, never panic, and
		// never allocate beyond the payload bound.
		fc := newFrameConn(&fuzzConn{r: bytes.NewReader(data)})
		for i := 0; i < 64; i++ {
			_, _, _, payload, err := fc.readFrame()
			if err != nil {
				break
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("readFrame returned %d-byte payload past the %d bound", len(payload), maxFramePayload)
			}
		}
	})
}

// FuzzFrameRoundTrip encodes wire values built from fuzzed fields,
// decodes them back, and demands equality — the byte-determinism
// contract the cross-engine differential tests rest on — then pushes
// a whole frame (traced and untraced) through write/read.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("key", "at", true, 3, 2, 1, "v1\x00v2", "err", uint64(7), uint64(9), []byte("payload"))
	f.Add("", "", false, 0, 0, 0, "", "", uint64(0), uint64(0), []byte{})
	f.Add("k\xffe\x00y", "a\nt", true, 1<<20, 42, 4, "x", "boom", uint64(1), uint64(0), []byte{0x80, 0xff})

	f.Fuzz(func(t *testing.T, key, at string, flag bool, n1, n2, n3 int, blob, errStr string, traceID, spanID uint64, payload []byte) {
		// No encoder writes a negative int (the decoder refuses one).
		n1, n2, n3 = n1&math.MaxInt, n2&math.MaxInt, n3&math.MaxInt
		values := splitNonEmpty(blob)

		// A hop decodes with Query preset from its frame type.
		req := overlay.Hop{Key: keys.Key(key), Down: !flag, At: keys.Key(at), Logical: n1, Physical: n2, Redirects: n3, Origin: traceID, ReplyTo: errStr}
		rq := req
		rq.Query, rq.Down, rq.Visited = true, flag, n3
		for _, h := range []overlay.Hop{req, rq} {
			got := overlay.Hop{Query: h.Query}
			if err := Unmarshal(Marshal((*hop)(&h)), (*hop)(&got)); err != nil || !reflect.DeepEqual(h, got) {
				t.Fatalf("hop round-trip: %+v != %+v (err %v)", got, h, err)
			}
		}

		// Every other Message: empty lists are built as they decode, an
		// empty string list nil and the others empty.
		members := []Member{}
		records := []*ApplyRecord{}
		// A REPLICA batch keeps its order and its duplicates: the
		// values as they come, each a snapshot holding itself, then
		// the key with no data.
		replicas := []core.Replica{}
		for i, v := range values {
			members = append(members, Member{ID: keys.Key(v), Addr: at, Capacity: n1})
			records = append(records, &ApplyRecord{Seq: uint64(i), Epoch: spanID, Op: byte(n2), Key: keys.Key(v), Value: key, ID: keys.Key(at), Capacity: n3, Addr: errStr})
			replicas = append(replicas, core.Replica{Key: keys.Key(v), Data: []string{v}, LoadPrev: n1, LoadCur: n2})
		}
		replicas = append(replicas, core.Replica{Key: keys.Key(key), LoadCur: n3})
		mirror := Mirror{Epoch: traceID, Seq: spanID, StewardAddr: at, Members: members, Image: append([]byte{}, payload...)}
		for _, m := range []Message{
			&JoinRequest{Version: n1, Alphabet: key, Placement: at, Addr: errStr, Capacity: n2},
			&HelloInfo{Version: n3, Err: errStr, Alphabet: key, Placement: blob, AssignedID: keys.Key(at), Mirror: mirror},
			&mirror,
			&LeaveNotice{ID: keys.Key(key), Addr: at, Epoch: traceID},
			&ApplyRecord{Seq: traceID, Epoch: spanID, Op: byte(n1), Key: keys.Key(key), Value: blob, ID: keys.Key(at), Capacity: n2, Addr: errStr},
			&ElectRequest{Epoch: traceID, ID: keys.Key(key), Addr: at, Seq: spanID},
			&ElectReply{Granted: flag, Epoch: traceID, Seq: spanID, StewardAddr: at, Err: errStr},
			&EpochOpen{Epoch: spanID, StewardID: keys.Key(at), StewardAddr: key, Seq: traceID},
			&EpochOpenReply{Seq: traceID, Err: errStr},
			&FetchRequest{From: spanID},
			&FetchReply{Records: records, Err: errStr},
			&Ack{Err: errStr},
			&reply{Found: flag, Dropped: !flag, Values: values, Anchor: keys.Key(at), Logical: n1, Physical: n2, Visited: n3, Err: errStr, Retry: flag},
			&queryReq{
				QuerySpec: core.QuerySpec{Range: flag, Prefix: keys.Key(key), Lo: keys.Key(at), Hi: keys.Key(errStr), Limit: n1},
				Entry:     keys.Key(blob), Walk: !flag, QueryResult: counters(n2, n3, n1),
			},
			&streamEnd{QueryResult: counters(n1, n2, n3), Err: errStr},
			&replicaBatch{From: keys.Key(key), To: keys.Key(at), Infos: replicas},
		} {
			got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
			if err := Unmarshal(Marshal(m), got); err != nil || !reflect.DeepEqual(m, got) {
				t.Fatalf("%T round-trip: %+v != %+v (err %v)", m, got, m, err)
			}
		}

		// A STREAM batch keeps its order whatever it is: the values as
		// they come, then the key and its prefixes.
		walk := []keys.Key{keys.Key(key), keys.Key(key[:len(key)/2]), keys.Key(at), keys.Key(key)}
		for _, v := range values {
			walk = append(walk, keys.Key(v))
		}
		walk = walk[:min(len(walk), streamFrameKeys)] // the decoder refuses a frame beyond the ceiling
		progress := streamEnd{QueryResult: counters(n1, n2, n3)}
		gotStream, gotProgress, err := decodeStreamBatch(appendStreamBatch(nil, walk, &progress))
		if err != nil {
			t.Fatalf("decodeStreamBatch: %v", err)
		}
		if !reflect.DeepEqual(walk, gotStream) || !reflect.DeepEqual(gotProgress, progress) {
			t.Fatalf("stream round-trip: %q %+v != %q", gotStream, gotProgress, walk)
		}

		// Whole-frame round-trip, traced when traceID != 0 (0x80
		// extension) and plain otherwise.
		typ := byte(frameRequest)
		var stream bytes.Buffer
		w := &frameConn{conn: &fuzzConn{w: &stream}}
		tc := trace.Context{Trace: traceID, Span: spanID}
		buf := beginTracedFrame(nil, typ, 11, tc)
		buf = append(buf, payload...)
		if err := w.finishFrame(buf); err != nil {
			if errors.Is(err, errFrameTooLarge) {
				t.Skip("oversized fuzz payload")
			}
			t.Fatalf("finishFrame: %v", err)
		}
		r := newFrameConn(&fuzzConn{r: bytes.NewReader(stream.Bytes())})
		gotTyp, gotID, gotTC, gotPayload, err := r.readFrame()
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if gotTyp != typ || gotID != 11 {
			t.Fatalf("frame round-trip: typ=%d id=%d", gotTyp, gotID)
		}
		if tc.Valid() {
			if gotTC != tc {
				t.Fatalf("trace context round-trip: %+v != %+v", gotTC, tc)
			}
		} else if gotTC.Valid() {
			t.Fatalf("untraced frame decoded a trace context: %+v", gotTC)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload round-trip: %x != %x", gotPayload, payload)
		}
	})
}

// freshMessages makes a zero value of every Message the wire carries:
// the control messages and the data-path payloads, a QROUTE hop (whose
// frame type presets Query) among them.
var freshMessages = []func() Message{
	func() Message { return new(JoinRequest) },
	func() Message { return new(HelloInfo) },
	func() Message { return new(Mirror) },
	func() Message { return new(LeaveNotice) },
	func() Message { return new(ApplyRecord) },
	func() Message { return new(ElectRequest) },
	func() Message { return new(ElectReply) },
	func() Message { return new(EpochOpen) },
	func() Message { return new(EpochOpenReply) },
	func() Message { return new(FetchRequest) },
	func() Message { return new(FetchReply) },
	func() Message { return new(Ack) },
	func() Message { return new(hop) },
	func() Message { return &hop{Query: true} },
	func() Message { return new(reply) },
	func() Message { return new(queryReq) },
	func() Message { return new(streamEnd) },
	func() Message { return new(replicaBatch) },
}

// counters builds the traversal counters the QUERY, STREAM and
// STREAM_END payloads carry.
func counters(logical, physical, visited int) core.QueryResult {
	return core.QueryResult{LogicalHops: logical, PhysicalHops: physical, NodesVisited: visited}
}

// fuzzCatalogue is the two-entry catalogue of the mirror seeds.
type fuzzCatalogue struct{}

func (fuzzCatalogue) Ascend(yield func(catalog.Entry) bool) {
	_ = yield(catalog.Entry{Key: "dgemm", Values: []string{"ep://1", "ep://2"}}) &&
		yield(catalog.Entry{Key: "dgemv", Values: []string{"ep://3"}})
}

// splitNonEmpty splits blob at NUL bytes, dropping empty segments
// (the codec encodes value counts, not separators).
func splitNonEmpty(blob string) []string {
	var out []string
	for _, s := range bytes.Split([]byte(blob), []byte{0}) {
		if len(s) > 0 {
			out = append(out, string(s))
		}
	}
	return out
}
