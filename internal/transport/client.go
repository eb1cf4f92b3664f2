// The cluster-less client side: control round trips for callers with
// no Cluster of their own (dlptd status, dlptd op, daemon.Admin). A
// ControlConn is one TCP connection such a caller may keep between
// calls (handleConn serves it persistent and multiplexed by frame id);
// RawCall is its one-shot form. It starts no goroutine, reading the
// reply on the calling goroutine: a connPool's quit channel, wait group
// and demux loops live and die with a Cluster.

package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// ErrConnLost marks a call that failed, other than by its deadline,
// before any byte of a reply came: on a kept connection, a peer that
// went away while it sat idle.
var ErrConnLost = errors.New("transport: connection lost before the reply")

// ControlConn is one framed connection, for one call at a time; ids
// increase per connection, so a frame answering an earlier call is
// never taken for this one's.
type ControlConn struct {
	fc     *frameConn
	lastID uint64
}

// DialControl connects to the listener of a daemon or cluster peer.
func DialControl(ctx context.Context, addr string) (*ControlConn, error) {
	conn, err := TCP.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &ControlConn{fc: newFrameConn(conn)}, nil
}

func (cc *ControlConn) Close() error { return cc.fc.Close() }

// Call sends one control frame and reads until its reply. The context
// deadline bounds the call; without one a 10s default applies, so a
// hung daemon cannot wedge the tool. Cancelling ctx fails the pending
// read. After an error the connection may hold a late reply or a spent
// deadline: it must be closed, not used again.
func (cc *ControlConn) Call(ctx context.Context, typ byte, payload []byte) (rtyp byte, p []byte, err error) {
	conn := cc.fc.conn
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(10 * time.Second) //dlptlint:ignore determinism I/O deadline, not a wire value
	}
	_ = conn.SetDeadline(deadline)
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Unix(1, 0)) })
		defer func() {
			if !stop() {
				rtyp, p, err = 0, nil, ctx.Err()
			}
		}()
	}
	cc.lastID++
	if err = cc.fc.writeRaw(typ, cc.lastID, payload); err == nil {
		_, err = cc.fc.br.Peek(1)
	}
	if err != nil {
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%w: %w", ErrConnLost, err)
		}
		return 0, nil, err
	}
	for {
		rtyp, id, _, p, err := cc.fc.readFrame()
		if err != nil || id == cc.lastID {
			return rtyp, bytes.Clone(p), err
		}
	}
}

// RawCall dials addr, sends one control frame, waits for its reply and
// closes the connection: one dial per call, for tools and for requests
// that must not be delivered twice (JOIN).
func RawCall(ctx context.Context, addr string, typ byte, payload []byte) (byte, []byte, error) {
	cc, err := DialControl(ctx, addr)
	if err != nil {
		return 0, nil, err
	}
	defer cc.Close()
	return cc.Call(ctx, typ, payload)
}
