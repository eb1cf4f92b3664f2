// The serving side of the wire protocol: the accept loop and read
// loop of one listener, a routed frame's step through the peer it
// reached, and the one-way sends that pass it on or answer it.

package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
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
// frames are routed frames passing through: each is advanced and sent
// on, never answered here. RESPONSE frames are direct replies to calls
// this cluster originated and complete them by id. QUERY opens a
// stream on this connection (STREAM_ACK feeds it, CANCEL aborts it,
// closing the connection aborts all of them); REPLICA and control
// frames are answered on this connection.
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
	work := make(chan hop)
	defer close(work)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for h := range work {
			c.serveHop(&h)
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
			h := hop{typ: typ, tc: tc}
			if typ == frameRequest {
				err = decodeRequest(payload, &h.req)
			} else {
				err = decodeQRoute(payload, &h.rq)
			}
			if err != nil {
				return // protocol violation: drop the connection
			}
			c.Mu.RLock()
			h.self = ps.id // balancing renames write ps.id under the write lock
			c.Mu.RUnlock()
			select {
			case work <- h: // idle worker takes it
			default: // worker busy: overflow goroutine keeps the frames moving
				c.wg.Add(1)
				go func(h hop) {
					defer c.wg.Done()
					c.serveHop(&h)
				}(h)
			}
		case frameResponse:
			c.complete(id, payload)
		case frameQuery:
			var q queryReq
			if err := decodeQuery(payload, &q); err != nil {
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
		case frameJoin, frameLeave, frameApply, frameStatus, frameAdmin,
			frameElect, frameEpochOpen, frameResync, frameFetch:
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
					_ = sc.fc.writeResponse(id, &response{Err: "transport: no control handler"})
					return
				}
				rtyp, rp := h(typ, cp)
				if err := sc.fc.writeRaw(rtyp, id, rp); errors.Is(err, errFrameTooLarge) {
					// Nothing reached the wire. Answer in band, as reply
					// does for RESPONSE, so the caller fails with the reason
					// now instead of waiting out its timeout.
					_ = sc.fc.writeResponse(id, &response{Err: err.Error()})
				}
			}(typ, id, cp)
		case frameReplica:
			var b core.ReplicaBatch
			if err := decodeReplicaBatch(payload, &b); err != nil {
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
				_ = sc.fc.writeResponse(id, &response{Logical: n})
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

// serveHop runs this peer's share of one routed frame and passes the
// frame on: one way to the next host while the walk continues, or as
// the answer to the originator where it ends — found, not found,
// dropped by gating, redirects exhausted, or a forward that failed
// twice, which the originator cures by re-issuing.
func (c *Cluster) serveHop(h *hop) {
	var span trace.Handle
	if h.typ == frameRequest {
		span = c.Rec.Start(h.tc, obs.PhaseRelay, string(h.self))
		span.SetAttr("key", string(h.req.Key))
	} else {
		span = c.Rec.Start(h.tc, obs.PhaseQRoute, string(h.self))
		span.SetAttr("anchor", string(h.rq.Anchor))
	}
	h.tc = span.Context()
	var resp response
	next, done := c.advance(h, &resp)
	if !done {
		if err := c.forward(context.Background(), next, h); err != nil {
			resp, done = response{Err: err.Error(), Retry: true}, true
		}
	}
	if done {
		c.reply(h, &resp)
	}
	span.End()
}

// advance routes the frame at h.self for as long as the walk stays on
// nodes that peer hosts. When the walk leaves the peer it returns the
// next host's address, with the frame updated in place and ready to
// forward; where routing ends it reports done with the outcome in resp
// (reply adds the counters).
func (c *Cluster) advance(h *hop, resp *response) (next string, done bool) {
	r := h.route()
	for {
		c.Mu.RLock()
		peer, ok := c.Net.Peer(h.self)
		if !ok {
			c.Mu.RUnlock()
			*resp = response{Err: fmt.Sprintf("peer %q gone", h.self), Retry: true}
			return "", true
		}
		node, ok := peer.Nodes[r.At]
		if !ok {
			// The node lives elsewhere (stale routing): forward to its
			// current host. A node lost to an unrecovered crash has no
			// host anywhere: bound the forwards and report what the
			// walk has (not found; a query yields nothing, exactly as
			// the walker does at a vanished node).
			host, okh := c.Net.HostOf(r.At)
			addr := c.addrs[host]
			c.Mu.RUnlock()
			r.Redirects++
			return addr, !okh || r.Redirects > overlay.MaxRedirects
		}
		var to keys.Key
		if h.typ == frameRequest {
			var res overlay.Result
			to, done = c.StepLocked(peer, node, h.req.Key, &h.req.GoingUp, &res)
			resp.Found, resp.Dropped, resp.Values = res.Found, res.Dropped, res.Values
		} else {
			to, done = c.routeStepLocked(node, &h.rq, resp)
		}
		if done {
			c.Mu.RUnlock()
			return "", true
		}
		host, _ := c.Net.HostOf(to)
		addr := c.addrs[host]
		c.Mu.RUnlock()
		r.At = to
		r.Logical++
		if host == h.self {
			continue // next node is local: no wire transfer
		}
		r.Physical++
		return addr, false
	}
}

// routeStepLocked is the climb/descend transition of a subtree query
// at one hosted node. The transition logic and counting mirror
// core.QueryWalker exactly, so on a stable tree the streamed totals
// match a walker that ran every phase in one process. Callers hold
// c.Mu.
func (c *Cluster) routeStepLocked(node *core.Node, rq *qroute, resp *response) (next keys.Key, done bool) {
	if rq.Visited == 0 {
		rq.Visited = 1 // the entry node, counted as the walker's Start does
	}
	if !rq.Descending {
		// Climb until the current node's subtree covers the anchor
		// (its label is a prefix of the anchor), or the root.
		if !keys.IsPrefix(node.Key, rq.Anchor) && node.HasFather {
			if !c.Net.NodeHosted(node.Father) {
				return "", true
			}
			rq.Visited++
			return node.Father, false
		}
		rq.Descending = true
	}
	// Descend towards the anchor while a single child still covers
	// the whole query (narrowing the traversal root).
	q, ok := node.BestChildFor(rq.Anchor)
	if !ok || !keys.IsPrefix(q, rq.Anchor) || !c.Net.NodeHosted(q) {
		resp.Found, resp.Anchor = true, node.Key
		return "", true
	}
	rq.Visited++
	return q, false
}

// send puts one routed frame — a REQUEST or QROUTE on its way, or the
// reply that ends it — on the pooled connection to addr, one way.
// Injected faults act here; a dropped frame is lost silently, the way
// a receiver crashing after its read loses it.
func (c *Cluster) send(ctx context.Context, typ byte, addr string, write func(fc *frameConn) error) error {
	dup, err := c.faultGate(ctx, typ, addr)
	if err != nil {
		if errors.Is(err, ErrInjectedDrop) {
			return nil
		}
		return err
	}
	err = c.pool.send(ctx, addr, write)
	if err == nil && dup {
		err = c.pool.send(ctx, addr, write)
	}
	return err
}

// forward sends the frame one way to addr, the host of the node it
// stands at. A transport failure — dial refused, write on a broken
// socket — means the address was stale: the peer behind it departed,
// crashed, or a Balance round renamed the routing identities while
// the hop was resolving. The pool has already evicted the dead
// connection by then, so forward re-resolves the node's current host
// once and retries on a fresh dial (routing is an idempotent read: a
// frame the first attempt did deliver costs a duplicate reply, which
// the originator drops).
func (c *Cluster) forward(ctx context.Context, addr string, h *hop) error {
	r := h.route()
	write := func(fc *frameConn) error {
		if h.typ == frameRequest {
			return fc.writeRequest(r.Origin, h.tc, &h.req)
		}
		return fc.writeQRoute(r.Origin, h.tc, &h.rq)
	}
	err := c.send(ctx, h.typ, addr, write)
	if err == nil || ctx.Err() != nil || c.Stopped() {
		return err
	}
	c.Mu.RLock()
	host, ok := c.Net.HostOf(r.At)
	addr = c.addrs[host]
	c.Mu.RUnlock()
	if !ok || addr == "" {
		return err
	}
	return c.send(ctx, h.typ, addr, write)
}

// reply writes the answer that ends h straight to its originator: one
// RESPONSE to the reply address, under the originator's id, carrying
// the frame's counters. A result too large for one frame degrades to
// an in-band error so the caller fails cleanly; a reply that cannot be
// delivered (twice, the second time on a fresh dial) is dropped, and
// the caller's sweeper re-issues the call.
func (c *Cluster) reply(h *hop, resp *response) {
	r := h.route()
	resp.Logical, resp.Physical, resp.Visited = r.Logical, r.Physical, h.rq.Visited
	write := func(fc *frameConn) error { return fc.writeResponse(r.Origin, resp) }
	ctx := context.Background()
	err := c.send(ctx, frameResponse, r.ReplyTo, write)
	if errors.Is(err, errFrameTooLarge) {
		*resp = response{Err: err.Error(), Logical: r.Logical, Physical: r.Physical}
	}
	if err != nil && !c.Stopped() {
		_ = c.send(ctx, frameResponse, r.ReplyTo, write)
	}
}
