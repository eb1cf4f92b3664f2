package transport

import (
	"context"
	"errors"
	"testing"

	"dlpt/internal/keys"
)

// A ControlConn serves call after call under increasing ids, and a peer
// gone before any reply byte reads as ErrConnLost. (Timed-out and
// cancelled calls are driven through the same Call by internal/daemon's
// TestAdminFailedCallClosesConnection.)
func TestControlConnCalls(t *testing.T) {
	srv, err := StartOpts(keys.LowerAlnum, []int{8}, 1, Options{
		Control: func(typ byte, payload []byte) (byte, []byte) { return FrameStatusResp, payload },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	var addr string
	for _, a := range srv.Addrs() {
		addr = a
	}
	ctx := context.Background()
	cc, err := DialControl(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	for _, msg := range []string{"one", "two", ""} {
		rtyp, p, err := cc.Call(ctx, FrameStatus, []byte(msg))
		if err != nil || rtyp != FrameStatusResp || string(p) != msg {
			t.Fatalf("echo %q = frame %d %q, %v", msg, rtyp, p, err)
		}
	}
	if cc.lastID != 3 {
		t.Fatalf("three calls used ids up to %d", cc.lastID)
	}
	srv.Stop()
	if _, _, err := cc.Call(ctx, FrameStatus, nil); !errors.Is(err, ErrConnLost) {
		t.Fatalf("call to a stopped peer: %v", err)
	}
}
