package memnet

import (
	"context"
	"io"
	"testing"
)

// A listener on port 0 gets a port of its own, a dial reaches it by the
// address it reports, and a closed listener refuses dials and frees its
// address.
func TestListenDialClose(t *testing.T) {
	n := New()
	a, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr().String() == b.Addr().String() {
		t.Fatalf("two listeners share %s", a.Addr())
	}
	if _, err := n.Listen(a.Addr().String()); err == nil {
		t.Fatal("a bound address listened twice")
	}
	ctx := context.Background()
	accepted := make(chan error, 1)
	go func() {
		conn, err := a.Accept()
		if err == nil {
			_, err = conn.Write([]byte("hi"))
			conn.Close()
		}
		accepted <- err
	}()
	conn, err := n.DialContext(ctx, a.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "hi" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := a.Accept(); err == nil {
		t.Fatal("accept on a closed listener")
	}
	if _, err := n.DialContext(ctx, a.Addr().String()); err == nil {
		t.Fatal("dial to a closed listener")
	}
	if l, err := n.Listen(a.Addr().String()); err != nil {
		t.Fatalf("closed address not freed: %v", err)
	} else {
		l.Close()
	}
	b.Close()
}
