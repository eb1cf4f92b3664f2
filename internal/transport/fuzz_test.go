package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sort"
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
// bytes, they must return an error rather than panic or over-allocate.
func FuzzFrameDecode(f *testing.F) {
	// Valid payloads of each shape seed the corpus.
	var req overlay.Hop
	f.Add(appendHop(nil, &overlay.Hop{Key: "abc", At: "ab", Logical: 3, Physical: 2, Redirects: 1}))
	f.Add(appendHop(nil, &overlay.Hop{Key: "abc", Down: true, At: "ab", Physical: 1, Origin: 1 << 40, ReplyTo: "127.0.0.1:4100"}))
	f.Add(appendResponse(nil, &overlay.Reply{Found: true, Values: []string{"v1", "v2"}, Logical: 7, Err: "boom"}))
	f.Add(appendResponse(nil, &overlay.Reply{Physical: 2, Err: "dial refused", Retry: true}))
	f.Add(appendResponse(nil, &overlay.Reply{Found: true, Anchor: "anc", Logical: 4, Physical: 2, Visited: 5}))
	f.Add(appendQuery(nil, &queryReq{QuerySpec: core.QuerySpec{Range: true, Lo: "a", Hi: "z", Limit: 5}, Entry: "m", Walk: true}))
	f.Add(appendHop(nil, &overlay.Hop{Query: true, Key: "anc", Down: true, Visited: 9, At: "at"}))
	f.Add(appendHop(nil, &overlay.Hop{Query: true, Key: "anc", Visited: 1, At: "at", Origin: 77, ReplyTo: "[::1]:9"}))
	f.Add(appendStreamEnd(nil, &streamEnd{QueryResult: counters(1, 2, 3), Err: "end"}))
	// STREAM payloads: front-coded keys, an empty batch, and a key
	// claiming to share more bytes than its predecessor has.
	f.Add(appendStreamBatch(nil, []keys.Key{"dgemm", "dgemv", "dgetrf", "dge", "sgemm"}, &streamEnd{QueryResult: counters(4, 2, 9)}))
	f.Add(appendStreamBatch(nil, nil, &streamEnd{QueryResult: counters(0, 0, 1)}))
	f.Add([]byte{0, 0, 0, 2, 0, 2, 'a', 'b', 3, 1, 'c'})
	f.Add(appendReplicaBatch(nil, &core.ReplicaBatch{
		From: "p1", To: "p2",
		Infos: []core.NodeInfo{{Key: "k", Father: "f", HasFather: true, Children: []keys.Key{"c1"}, Data: []string{"d"}, LoadCur: 2}},
	}))
	// Frame-level seeds: a whole valid frame, a traced frame, a
	// truncated trace extension, and a hostile length prefix.
	fc := &frameConn{conn: &fuzzConn{}}
	var stream bytes.Buffer
	fc.conn = &fuzzConn{w: &stream}
	if err := fc.writeRaw(frameRequest, 1, appendHop(nil, &req)); err != nil {
		f.Fatal(err)
	}
	buf := beginTracedFrame(nil, frameRequest, 2, trace.Context{Trace: 7, Span: 9})
	buf = appendHop(buf, &req)
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
	// The control plane: one valid payload per decoder. The daemon
	// feeds every one of these bytes from another process.
	mirror := Mirror{
		Epoch: 2, Seq: 41, StewardAddr: "[::1]:7",
		Members: []Member{{ID: "m1", Addr: "[::1]:7", Capacity: 8}, {ID: "m2", Addr: "[::1]:9", Capacity: 8}},
		Image: persist.AppendImage(nil, 0,
			[]persist.PeerState{{ID: "m1", Capacity: 8}, {ID: "m2", Capacity: 8}}, fuzzCatalogue{}),
	}
	apply := &ApplyRecord{Seq: 41, Epoch: 2, Op: OpJoin, Key: "k", Value: "v", ID: "m2", Capacity: 8, Addr: "[::1]:9"}
	f.Add(EncodeJoin(&JoinRequest{Version: HandshakeVersion, Alphabet: "ab", Placement: "KC", Addr: "[::1]:9", Capacity: 8}))
	f.Add(EncodeHello(&HelloInfo{Version: HandshakeVersion, Alphabet: "ab", Placement: "KC", AssignedID: "m2", Mirror: mirror}))
	f.Add(EncodeMirror(&mirror))
	f.Add(EncodeLeave(&LeaveNotice{ID: "m2", Addr: "[::1]:9", Epoch: 2}))
	f.Add(EncodeApply(apply))
	f.Add(EncodeElect(&ElectRequest{Epoch: 3, ID: "m2", Addr: "[::1]:9", Seq: 41}))
	f.Add(EncodeElectReply(&ElectReply{Granted: true, Epoch: 3, Seq: 40, StewardAddr: "[::1]:7", Err: "e"}))
	f.Add(EncodeEpochOpen(&EpochOpen{Epoch: 3, StewardID: "m2", StewardAddr: "[::1]:9", Seq: 41}))
	f.Add(EncodeEpochOpenReply(&EpochOpenReply{Seq: 40, Err: "e"}))
	f.Add(EncodeFetch(&FetchRequest{From: 40}))
	f.Add(EncodeFetchReply(&FetchReply{Records: []*ApplyRecord{apply}, Err: "e"}))
	f.Add(EncodeAck("refused"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeJoin(data)
		_, _ = DecodeLeave(data)
		_, _ = DecodeApply(data)
		_, _ = DecodeElect(data)
		_, _ = DecodeElectReply(data)
		_, _ = DecodeEpochOpen(data)
		_, _ = DecodeEpochOpenReply(data)
		_, _ = DecodeFetch(data)
		_, _ = DecodeFetchReply(data)
		_, _ = DecodeAck(data)
		// A mirror that decodes carries an image the installer will
		// parse: that, too, must refuse rather than panic.
		var mirrors []*Mirror
		if m, err := DecodeMirror(data); err == nil {
			mirrors = append(mirrors, m)
		}
		if h, err := DecodeHello(data); err == nil {
			mirrors = append(mirrors, &h.Mirror)
		}
		for _, m := range mirrors {
			if snap, err := persist.ParseImage(m.Image); err == nil {
				_ = snap.Ascend(func(catalog.Entry) bool { return true })
			}
		}
		var req overlay.Hop
		_ = decodeHop(data, &req)
		var resp overlay.Reply
		_ = decodeResponse(data, &resp)
		var q queryReq
		_ = decodeQuery(data, &q)
		rq := overlay.Hop{Query: true}
		_ = decodeHop(data, &rq)
		var batch core.ReplicaBatch
		_ = decodeReplicaBatch(data, &batch)
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
		var end streamEnd
		_ = decodeStreamEnd(data, &end)

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
		if n1 < 0 {
			n1 = -n1
		}
		if n2 < 0 {
			n2 = -n2
		}
		if n3 < 0 {
			n3 = -n3
		}
		values := splitNonEmpty(blob)

		req := overlay.Hop{Key: keys.Key(key), Down: !flag, At: keys.Key(at), Logical: n1, Physical: n2, Redirects: n3, Origin: traceID, ReplyTo: errStr}
		var gotReq overlay.Hop
		if err := decodeHop(appendHop(nil, &req), &gotReq); err != nil {
			t.Fatalf("decodeHop: %v", err)
		}
		if !reflect.DeepEqual(req, gotReq) {
			t.Fatalf("request round-trip: %+v != %+v", req, gotReq)
		}

		resp := overlay.Reply{Found: flag, Dropped: !flag, Values: values, Anchor: keys.Key(at), Logical: n1, Physical: n2, Visited: n3, Err: errStr, Retry: flag}
		var gotResp overlay.Reply
		if err := decodeResponse(appendResponse(nil, &resp), &gotResp); err != nil {
			t.Fatalf("decodeResponse: %v", err)
		}
		if len(gotResp.Values) == 0 {
			gotResp.Values = nil
		}
		if len(resp.Values) == 0 {
			resp.Values = nil
		}
		if !reflect.DeepEqual(resp, gotResp) {
			t.Fatalf("response round-trip: %+v != %+v", resp, gotResp)
		}

		q := queryReq{
			QuerySpec: core.QuerySpec{Range: flag, Prefix: keys.Key(key), Lo: keys.Key(at), Hi: keys.Key(errStr), Limit: n1},
			Entry:     keys.Key(blob), Walk: !flag, QueryResult: counters(n2, n3, n1),
		}
		var gotQ queryReq
		if err := decodeQuery(appendQuery(nil, &q), &gotQ); err != nil {
			t.Fatalf("decodeQuery: %v", err)
		}
		if !reflect.DeepEqual(q, gotQ) {
			t.Fatalf("query round-trip: %+v != %+v", q, gotQ)
		}

		rq := req
		rq.Query, rq.Down, rq.Visited = true, flag, n3
		gotRq := overlay.Hop{Query: true}
		if err := decodeHop(appendHop(nil, &rq), &gotRq); err != nil {
			t.Fatalf("decodeHop: %v", err)
		}
		if !reflect.DeepEqual(rq, gotRq) {
			t.Fatalf("qroute round-trip: %+v != %+v", rq, gotRq)
		}

		end := streamEnd{QueryResult: counters(n1, n2, n3), Err: errStr}
		var gotEnd streamEnd
		if err := decodeStreamEnd(appendStreamEnd(nil, &end), &gotEnd); err != nil {
			t.Fatalf("decodeStreamEnd: %v", err)
		}
		if !reflect.DeepEqual(end, gotEnd) {
			t.Fatalf("streamEnd round-trip: %+v != %+v", end, gotEnd)
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

		batch := core.ReplicaBatch{From: keys.Key(key), To: keys.Key(at)}
		for i, v := range values {
			batch.Infos = append(batch.Infos, core.NodeInfo{
				Key: keys.Key(v), Father: keys.Key(key), HasFather: i%2 == 0,
				Children: []keys.Key{keys.Key(at)}, Data: []string{v},
				LoadPrev: n1, LoadCur: n2,
			})
		}
		var gotBatch core.ReplicaBatch
		if err := decodeReplicaBatch(appendReplicaBatch(nil, &batch), &gotBatch); err != nil {
			t.Fatalf("decodeReplicaBatch: %v", err)
		}
		// The catalogue envelope canonicalizes the batch: snapshots
		// arrive sorted by key with duplicates collapsed (later
		// wins), the father of a fatherless node is dropped, and
		// empty child/data slices come back nil.
		sort.SliceStable(batch.Infos, func(i, j int) bool {
			return batch.Infos[i].Key < batch.Infos[j].Key
		})
		dedup := batch.Infos[:0]
		for i, info := range batch.Infos {
			if !info.HasFather {
				info.Father = ""
			}
			if len(info.Children) == 0 {
				info.Children = nil
			}
			if len(info.Data) == 0 {
				info.Data = nil
			}
			if i+1 < len(batch.Infos) && batch.Infos[i+1].Key == info.Key {
				continue
			}
			dedup = append(dedup, info)
		}
		batch.Infos = dedup
		if len(batch.Infos) == 0 {
			batch.Infos = nil
		}
		if len(gotBatch.Infos) == 0 {
			gotBatch.Infos = nil
		}
		if !reflect.DeepEqual(batch, gotBatch) {
			t.Fatalf("replica round-trip: %+v != %+v", batch, gotBatch)
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

// counters builds the traversal counters the QUERY, STREAM and
// STREAM_END payloads carry.
func counters(logical, physical, visited int) core.QueryResult {
	return core.QueryResult{LogicalHops: logical, PhysicalHops: physical, NodesVisited: visited}
}

// fuzzCatalogue is the two-entry catalogue of the mirror seeds.
type fuzzCatalogue struct{}

func (fuzzCatalogue) Len() int { return 2 }

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
