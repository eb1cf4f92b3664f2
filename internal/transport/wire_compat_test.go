package transport

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// TestFramesOfPreviousEncoderDecode pins the wire across the move of
// the hop and its reply into internal/overlay: whole frames captured
// from the encoder as it was before the move (separate request, qroute
// and response structs) decode to the hop or reply they carried, and
// today's encoder writes them back byte for byte.
func TestFramesOfPreviousEncoderDecode(t *testing.T) {
	tc := trace.Context{Trace: 0xdeadbeef, Span: 0x1234}
	for _, f := range []struct {
		name, frame string
		hop         *overlay.Hop
		reply       *overlay.Reply
	}{
		{"request climbing", "0100000000000000290000001e0670646765737601027064070302290e3132372e302e302e313a37303031",
			&overlay.Hop{Key: "pdgesv", At: "pd", Logical: 7, Physical: 3, Redirects: 2, Origin: 41, ReplyTo: "127.0.0.1:7001"}, nil},
		{"request descending, traced", "8100000100000000000000003000000000deadbeef00000000000012340773336c5f666674000473336c5fac020100808080808020075b3a3a315d3a39",
			&overlay.Hop{Key: "s3l_fft", Down: true, At: "s3l_", Logical: 300, Physical: 1, Origin: 1 << 40, ReplyTo: "[::1]:9", TC: tc}, nil},
		{"qroute climbing", "09000000000000004d0000001f036467650001056467656d6d0001004d0e3132372e302e302e313a34313030",
			&overlay.Hop{Query: true, Key: "dge", Visited: 1, At: "dgemm", Physical: 1, Origin: 77, ReplyTo: "127.0.0.1:4100"}, nil},
		{"qroute descending, traced", "89000000000000004e0000002b00000000deadbeef000000000000123403646765010901640804014e0e3132372e302e302e313a34313030",
			&overlay.Hop{Query: true, Key: "dge", Down: true, Visited: 9, At: "d", Logical: 8, Physical: 4, Redirects: 1, Origin: 78, ReplyTo: "127.0.0.1:4100", TC: tc}, nil},
		{"response found", "020000000000000029000000130100020465702d610465702d62000904000000",
			nil, &overlay.Reply{Found: true, Values: []string{"ep-a", "ep-b"}, Logical: 9, Physical: 4}},
		{"response anchor", "02000000000000004e0000000c010000036467650804090000",
			nil, &overlay.Reply{Found: true, Anchor: "dge", Logical: 8, Physical: 4, Visited: 9}},
		{"response dropped", "02000000000000000500000009000100000201000000",
			nil, &overlay.Reply{Dropped: true, Logical: 2, Physical: 1}},
		{"response retry", "02000000000000000600000016000000000002000d706565722022782220676f6e6501",
			nil, &overlay.Reply{Physical: 2, Err: `peer "x" gone`, Retry: true}},
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
		if f.hop != nil {
			got := overlay.Hop{Query: typ == frameQRoute, TC: gotTC}
			if err = decodeHop(payload, &got); err != nil || got != *f.hop || id != f.hop.Origin {
				t.Errorf("%s: decoded %+v under id %d (err %v), want %+v", f.name, got, id, err, *f.hop)
			}
			err = fc.writeHop(f.hop)
		} else {
			var got overlay.Reply
			if err = decodeResponse(payload, &got); err != nil || typ != frameResponse || !reflect.DeepEqual(got, *f.reply) {
				t.Errorf("%s: decoded %+v (err %v), want %+v", f.name, got, err, *f.reply)
			}
			err = fc.writeResponse(id, f.reply)
		}
		if err != nil || !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: re-encoded as\n%x (err %v), captured\n%x", f.name, out.Bytes(), err, want)
		}
	}
}
