package transport

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// TestFramesOfPreviousEncoderDecode pins the wire across refactors of
// the structs it carries: whole frames captured from the encoder as it
// was before the move (the hop and its reply before they moved into
// internal/overlay, with separate request, qroute and response
// structs; QUERY, STREAM and STREAM_END before their structs embedded
// core.QuerySpec and core.QueryResult) decode to the value they
// carried, and today's encoder writes them back byte for byte.
func TestFramesOfPreviousEncoderDecode(t *testing.T) {
	tc := trace.Context{Trace: 0xdeadbeef, Span: 0x1234}
	for _, f := range []struct {
		name, frame string
		hop         *overlay.Hop
		reply       *overlay.Reply
		query       *queryReq
		batch       []keys.Key // a STREAM frame's keys, its counters in end
		end         *streamEnd
	}{
		{name: "request climbing", frame: "0100000000000000290000001e0670646765737601027064070302290e3132372e302e302e313a37303031",
			hop: &overlay.Hop{Key: "pdgesv", At: "pd", Logical: 7, Physical: 3, Redirects: 2, Origin: 41, ReplyTo: "127.0.0.1:7001"}},
		{name: "request descending, traced", frame: "8100000100000000000000003000000000deadbeef00000000000012340773336c5f666674000473336c5fac020100808080808020075b3a3a315d3a39",
			hop: &overlay.Hop{Key: "s3l_fft", Down: true, At: "s3l_", Logical: 300, Physical: 1, Origin: 1 << 40, ReplyTo: "[::1]:9", TC: tc}},
		{name: "qroute climbing", frame: "09000000000000004d0000001f036467650001056467656d6d0001004d0e3132372e302e302e313a34313030",
			hop: &overlay.Hop{Query: true, Key: "dge", Visited: 1, At: "dgemm", Physical: 1, Origin: 77, ReplyTo: "127.0.0.1:4100"}},
		{name: "qroute descending, traced", frame: "89000000000000004e0000002b00000000deadbeef000000000000123403646765010901640804014e0e3132372e302e302e313a34313030",
			hop: &overlay.Hop{Query: true, Key: "dge", Down: true, Visited: 9, At: "d", Logical: 8, Physical: 4, Redirects: 1, Origin: 78, ReplyTo: "127.0.0.1:4100", TC: tc}},
		{name: "response found", frame: "020000000000000029000000130100020465702d610465702d62000904000000",
			reply: &overlay.Reply{Found: true, Values: []string{"ep-a", "ep-b"}, Logical: 9, Physical: 4}},
		{name: "response anchor", frame: "02000000000000004e0000000c010000036467650804090000",
			reply: &overlay.Reply{Found: true, Anchor: "dge", Logical: 8, Physical: 4, Visited: 9}},
		{name: "response dropped", frame: "02000000000000000500000009000100000201000000",
			reply: &overlay.Reply{Dropped: true, Logical: 2, Physical: 1}},
		{name: "response retry", frame: "02000000000000000600000016000000000002000d706565722022782220676f6e6501",
			reply: &overlay.Reply{Physical: 2, Err: `peer "x" gone`, Retry: true}},
		{name: "query range, traced", frame: "84000000000000002a0000002600000000deadbeef00000000000012340100056467656d6d067367657472660a016401030205",
			query: &queryReq{QuerySpec: core.QuerySpec{Range: true, Lo: "dgemm", Hi: "sgetrf", Limit: 10}, Entry: "d", Walk: true, QueryResult: counters(3, 2, 5)}},
		{name: "query completion", frame: "04000000000000002b0000001000036467650000000364676501070108",
			query: &queryReq{QuerySpec: core.QuerySpec{Prefix: "dge"}, Entry: "dge", Walk: true, QueryResult: counters(7, 1, 8)}},
		{name: "stream", frame: "05000000000000002a0000001309041e0300056467656d6d0401760303747266",
			batch: []keys.Key{"dgemm", "dgemv", "dgetrf"}, end: &streamEnd{QueryResult: counters(9, 4, 30)}},
		{name: "stream end", frame: "06000000000000002a0000001409041f10636f6e746578742063616e63656c6564",
			end: &streamEnd{QueryResult: counters(9, 4, 31), Err: "context canceled"}},
	} {
		want, err := hex.DecodeString(f.frame)
		if err != nil {
			t.Fatal(err)
		}
		typ, id, gotTC, payload, err := newFrameConn(&fuzzConn{r: bytes.NewReader(want)}).readFrame()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		var out bytes.Buffer
		fc := &frameConn{conn: &fuzzConn{w: &out}}
		var got, wantV any
		switch {
		case f.hop != nil:
			h := overlay.Hop{Query: typ == frameQRoute, TC: gotTC}
			err = Unmarshal(payload, (*hop)(&h))
			got, wantV = h, *f.hop
			if id != f.hop.Origin {
				t.Errorf("%s: decoded under id %d, want %d", f.name, id, f.hop.Origin)
			}
			if err == nil {
				err = fc.writeHop(f.hop)
			}
		case f.reply != nil:
			var rep overlay.Reply
			err = Unmarshal(payload, (*reply)(&rep))
			got, wantV = rep, *f.reply
			if err == nil {
				err = fc.writeResponse(id, f.reply)
			}
		case f.query != nil:
			var q queryReq
			err = Unmarshal(payload, &q)
			got, wantV = q, *f.query
			if err == nil {
				err = fc.writeQuery(id, gotTC, f.query)
			}
		case f.batch != nil:
			var batch []keys.Key
			var progress streamEnd
			batch, progress, err = decodeStreamBatch(payload)
			got, wantV = [2]any{batch, progress}, [2]any{f.batch, *f.end}
			if err == nil {
				err = fc.writeStream(id, f.batch, f.end, false)
			}
		default:
			var end streamEnd
			err = Unmarshal(payload, &end)
			got, wantV = end, *f.end
			if err == nil {
				err = fc.writeStream(id, nil, f.end, true)
			}
		}
		if err != nil || !reflect.DeepEqual(got, wantV) {
			t.Errorf("%s: decoded %+v (frame type %d, err %v), want %+v", f.name, got, typ, err, wantV)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: re-encoded as\n%x, captured\n%x", f.name, out.Bytes(), want)
		}
	}
}

// TestControlPayloadsOfPreviousEncoderDecode pins the control plane
// the same way: payloads captured from the hand-written per-message
// encoders of handshake version 5 decode to the value they carried,
// and Marshal writes them back byte for byte. An empty member table
// or image decodes as empty, not nil, as it always has. The REPLICA
// batch is pinned as the one codec first wrote it: in the order it was
// shipped (a host's ν_P, not sorted), a snapshot with no values and no
// load among them.
func TestControlPayloadsOfPreviousEncoderDecode(t *testing.T) {
	mirror := Mirror{
		Epoch: 2, Seq: 41, StewardAddr: "[::1]:7",
		Members: []Member{{ID: "m1", Addr: "[::1]:7", Capacity: 8}, {ID: "m2", Addr: "[::1]:9", Capacity: 8}},
		Image:   []byte("IMG\x00\x01"),
	}
	apply := ApplyRecord{Seq: 41, Epoch: 2, Op: OpJoin, Key: "k", Value: "v", ID: "m2", Capacity: 8, Addr: "[::1]:9"}
	for _, c := range []struct {
		name, payload string
		msg           Message
	}{
		{"join", "05026162024b43075b3a3a315d3a3908",
			&JoinRequest{Version: 5, Alphabet: "ab", Placement: "KC", Addr: "[::1]:9", Capacity: 8}},
		{"hello", "0500026162024b43026d320229075b3a3a315d3a3702026d31075b3a3a315d3a3708026d32075b3a3a315d3a390805494d470001",
			&HelloInfo{Version: 5, Alphabet: "ab", Placement: "KC", AssignedID: "m2", Mirror: mirror}},
		{"hello rejection", "050b6e6f7420737465776172640000000000075b3a3a315d3a370000",
			&HelloInfo{Version: 5, Err: "not steward", Mirror: Mirror{StewardAddr: "[::1]:7", Members: []Member{}, Image: []byte{}}}},
		{"resync", "0229075b3a3a315d3a3702026d31075b3a3a315d3a3708026d32075b3a3a315d3a390805494d470001", &mirror},
		{"leave", "026d32075b3a3a315d3a3902", &LeaveNotice{ID: "m2", Addr: "[::1]:9", Epoch: 2}},
		{"apply join", "290203016b0176026d3208075b3a3a315d3a39", &apply},
		{"apply register", "ac020101056467656d6d0465702d61000000",
			&ApplyRecord{Seq: 300, Epoch: 1, Op: OpRegister, Key: "dgemm", Value: "ep-a"}},
		{"elect", "03026d32075b3a3a315d3a3929", &ElectRequest{Epoch: 3, ID: "m2", Addr: "[::1]:9", Seq: 41}},
		{"elect reply", "010328075b3a3a315d3a370165",
			&ElectReply{Granted: true, Epoch: 3, Seq: 40, StewardAddr: "[::1]:7", Err: "e"}},
		{"epoch open", "03026d32075b3a3a315d3a3929", &EpochOpen{Epoch: 3, StewardID: "m2", StewardAddr: "[::1]:9", Seq: 41}},
		{"epoch open reply", "280165", &EpochOpenReply{Seq: 40, Err: "e"}},
		{"fetch", "28", &FetchRequest{From: 40}},
		{"fetch reply", "01650213290203016b0176026d3208075b3a3a315d3a390a2a020101780179000000",
			&FetchReply{Records: []*ApplyRecord{&apply, {Seq: 42, Epoch: 2, Op: OpRegister, Key: "x", Value: "y"}}, Err: "e"}},
		{"ack", "00000000000000077265667573656400", &Ack{Err: "refused"}},
		{"replica", "02703102703203056467656d76010665703a2f2f3201ac0203646765000000056467656d6d020665703a2f2f310665703a2f2f320702",
			&replicaBatch{From: "p1", To: "p2", Infos: []core.Replica{
				{Key: "dgemv", Data: []string{"ep://2"}, LoadPrev: 1, LoadCur: 300},
				{Key: "dge"},
				{Key: "dgemm", Data: []string{"ep://1", "ep://2"}, LoadPrev: 7, LoadCur: 2},
			}}},
	} {
		want, err := hex.DecodeString(c.payload)
		if err != nil {
			t.Fatal(err)
		}
		got := reflect.New(reflect.TypeOf(c.msg).Elem()).Interface().(Message)
		if err := Unmarshal(want, got); err != nil || !reflect.DeepEqual(got, c.msg) {
			t.Errorf("%s: decoded %+v (err %v), want %+v", c.name, got, err, c.msg)
		}
		if b := Marshal(c.msg); !bytes.Equal(b, want) {
			t.Errorf("%s: re-encoded as\n%x, captured\n%x", c.name, b, want)
		}
	}
}
