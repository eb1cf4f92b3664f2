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
			err = decodeHop(payload, &h)
			got, wantV = h, *f.hop
			if id != f.hop.Origin {
				t.Errorf("%s: decoded under id %d, want %d", f.name, id, f.hop.Origin)
			}
			if err == nil {
				err = fc.writeHop(f.hop)
			}
		case f.reply != nil:
			var rep overlay.Reply
			err = decodeResponse(payload, &rep)
			got, wantV = rep, *f.reply
			if err == nil {
				err = fc.writeResponse(id, f.reply)
			}
		case f.query != nil:
			var q queryReq
			err = decodeQuery(payload, &q)
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
			err = decodeStreamEnd(payload, &end)
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
