// The serving side of the wire protocol: the accept loop and read
// loop of one listener, which hands routed frames to the runtime's
// driver and replies to its pending table.

package transport

import (
	"context"
	"errors"
	"net"
	"strconv"
	"sync"

	"dlpt/internal/core"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// serve accepts and handles connections for one peer. Connections
// are persistent: each carries many multiplexed requests over its
// lifetime and closes only when a side goes away.
func (c *Cluster) serve(ps *peerServer) {
	defer c.wg.Done()
	for {
		conn, err := ps.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !ps.track(conn) {
			_ = conn.Close() // peer departed while accepting
			continue
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			defer ps.untrack(conn)
			c.handleConn(ps, conn)
		}()
	}
}

// serverConn is the per-connection server state: the framed socket
// and the table of in-flight streaming queries.
type serverConn struct {
	fc      *frameConn
	amu     sync.Mutex
	streams map[uint64]serverStream
}

// serverStream is what the connection's read loop holds of one
// streaming query: cancel (a CANCEL frame, or teardown) aborts it, and
// acks takes one token per STREAM_ACK, with a slot for every frame
// that can be in flight so an ACK is never dropped.
type serverStream struct {
	cancel context.CancelFunc
	acks   chan struct{}
}

// ackStream feeds one frame's acknowledgement to the streaming query
// with the given id, if it is still active.
func (sc *serverConn) ackStream(id uint64) {
	sc.amu.Lock()
	st, ok := sc.streams[id]
	sc.amu.Unlock()
	if ok {
		select {
		case st.acks <- struct{}{}:
		default: // more ACKs than frames in flight: not ours to count
		}
	}
}

// handleConn serves one persistent connection. REQUEST and QROUTE
// frames are routed hops passing through: the runtime's driver advances
// each and sends it on, never answering here. RESPONSE frames are
// direct replies to calls this cluster originated and complete them by
// id. QUERY opens a stream on this connection (STREAM_ACK feeds it,
// CANCEL aborts it, closing the connection aborts all of them); REPLICA
// and control frames are answered on this connection.
//
// Routed frames are handed to a persistent per-connection worker, so
// the read loop never waits on a downstream dial or write and the
// worker's warm stack absorbs the routing work (a fresh goroutine per
// frame re-pays stack growth on every hop); when the worker is busy
// with an earlier frame, a transient goroutine takes the overflow so
// multiplexed frames never queue behind each other.
func (c *Cluster) handleConn(ps *peerServer, conn net.Conn) {
	sc := &serverConn{fc: newFrameConn(conn), streams: make(map[uint64]serverStream)}
	sc.fc.met = c.Met
	work := make(chan overlay.Hop)
	defer close(work)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for h := range work {
			c.ServeHop(&ps.id, &h)
		}
	}()
	defer func() {
		sc.amu.Lock()
		for _, st := range sc.streams {
			st.cancel()
		}
		sc.amu.Unlock()
	}()
	for {
		typ, id, tc, payload, err := sc.fc.readFrame()
		if err != nil {
			return // connection closed (client gone, peer dropped, Stop)
		}
		switch typ {
		case frameRequest, frameQRoute:
			h := overlay.Hop{Query: typ == frameQRoute, TC: tc}
			if err := Unmarshal(payload, (*hop)(&h)); err != nil {
				return // protocol violation: drop the connection
			}
			select {
			case work <- h: // idle worker takes it
			default: // worker busy: overflow goroutine keeps the frames moving
				c.wg.Add(1)
				go func(h overlay.Hop) {
					defer c.wg.Done()
					c.ServeHop(&ps.id, &h)
				}(h)
			}
		case frameResponse:
			var rep overlay.Reply
			if err := Unmarshal(payload, (*reply)(&rep)); err != nil {
				rep = overlay.Reply{Err: err.Error()}
			}
			c.Complete(id, rep)
		case frameQuery:
			var q queryReq
			if err := Unmarshal(payload, &q); err != nil {
				return // protocol violation: drop the connection
			}
			ctx, cancel := context.WithCancel(context.Background())
			st := serverStream{cancel: cancel, acks: make(chan struct{}, streamMaxInflight)}
			sc.amu.Lock()
			sc.streams[id] = st
			sc.amu.Unlock()
			// Streams are long-lived relative to routing steps: each
			// gets its own goroutine instead of the shared worker, so
			// a slow stream never queues routed frames behind it.
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.serveQuery(ctx, sc, id, st, q, tc)
			}()
		case FrameJoin, FrameLeave, FrameApply, FrameStatus, FrameAdmin,
			FrameElect, FrameEpochOpen, FrameResync, FrameFetch:
			// Control plane: hand the frame to the daemon layer. The
			// payload aliases the read buffer, so the handler gets a
			// copy; a goroutine per frame keeps the read loop moving
			// (handlers serialize on the daemon's own mutex and may
			// take this cluster's write lock).
			h := c.control
			cp := append([]byte(nil), payload...)
			c.wg.Add(1)
			go func(typ byte, id uint64, cp []byte) {
				defer c.wg.Done()
				if h == nil {
					_ = sc.fc.writeResponse(id, &overlay.Reply{Err: "transport: no control handler"})
					return
				}
				rtyp, rp := h(typ, cp)
				if err := sc.fc.writeRaw(rtyp, id, rp); errors.Is(err, errFrameTooLarge) {
					// Nothing reached the wire. Answer in band, as Reply
					// does for RESPONSE, so the caller fails with the reason
					// now instead of waiting out its timeout.
					_ = sc.fc.writeResponse(id, &overlay.Reply{Err: err.Error()})
				}
			}(typ, id, cp)
		case frameReplica:
			var b core.ReplicaBatch
			if err := Unmarshal(payload, (*replicaBatch)(&b)); err != nil {
				return // protocol violation: drop the connection
			}
			// Replica installs take the topology write lock; a
			// goroutine per batch keeps the read loop (and the
			// frames multiplexed on this connection) moving.
			c.wg.Add(1)
			go func(id uint64, b core.ReplicaBatch, tc trace.Context) {
				defer c.wg.Done()
				span := c.Rec.Start(tc, "replica-install", string(b.To))
				n := c.InstallReplicas(b)
				span.SetAttr("installed", strconv.Itoa(n))
				span.End()
				_ = sc.fc.writeResponse(id, &overlay.Reply{Logical: n})
			}(id, b, tc)
		case frameStreamAck:
			sc.ackStream(id)
		case frameCancel:
			sc.amu.Lock()
			if st, ok := sc.streams[id]; ok {
				st.cancel()
			}
			sc.amu.Unlock()
		}
	}
}
