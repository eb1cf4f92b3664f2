// The cluster's side of the runtime's Link: one listener per local
// peer, the address table that routes to every peer, REPLICA frames
// for successor batches, and the one-way frames a routed hop and its
// answer travel as.

package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// peerServer is one peer's TCP endpoint. Accepted connections are
// persistent (one per remote client, many in-flight requests) and
// tracked so removing or crashing the peer can close them: a pooled
// client connection to a dead peer must fail fast, not linger.
type peerServer struct {
	id   keys.Key
	addr string
	ln   net.Listener

	cmu    sync.Mutex
	conns  map[net.Conn]struct{} // guarded by cmu
	closed bool                  // guarded by cmu
}

// track registers an accepted connection; it reports false when the
// server already closed (the caller drops the connection).
func (ps *peerServer) track(conn net.Conn) bool {
	ps.cmu.Lock()
	defer ps.cmu.Unlock()
	if ps.closed {
		return false
	}
	ps.conns[conn] = struct{}{}
	return true
}

func (ps *peerServer) untrack(conn net.Conn) {
	ps.cmu.Lock()
	delete(ps.conns, conn)
	ps.cmu.Unlock()
}

// close shuts the listener and every accepted connection down.
func (ps *peerServer) close() {
	ps.cmu.Lock()
	ps.closed = true
	conns := make([]net.Conn, 0, len(ps.conns))
	for conn := range ps.conns {
		conns = append(conns, conn)
	}
	ps.cmu.Unlock()
	_ = ps.ln.Close()
	for _, conn := range conns {
		_ = conn.Close()
	}
}

// NormalizeBind canonicalizes a bind address: empty preserves the
// historical loopback-ephemeral binding, and a bare host gets an
// ephemeral port.
func NormalizeBind(bind string) string {
	if bind == "" {
		return "127.0.0.1:0"
	}
	if _, _, err := net.SplitHostPort(bind); err != nil {
		return net.JoinHostPort(bind, "0")
	}
	return bind
}

// AdvertiseAddr rewrites a listener's bound address into the form
// other processes should dial: an explicit advertise host wins, an
// unspecified bind host (empty, 0.0.0.0, ::) falls back to loopback,
// and the result is JoinHostPort-canonical — the routing table and
// the connection pool key by this string, so one peer must always
// advertise byte-identically.
func AdvertiseAddr(listen, advertiseHost string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if advertiseHost != "" {
		host = advertiseHost
	} else if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// link is the cluster seen as the runtime's overlay.Link: a peer's
// endpoint is its listener and its entry in the address table.
type link struct{ c *Cluster }

// PeerUp binds a fresh listener from the cluster's Net for peer id on
// the bind address (loopback-ephemeral by default) and serves it. The
// runtime holds Mu: the address table entry becomes visible atomically
// with the peer's ring membership, or a concurrent discovery could
// resolve the peer as host and find no address.
func (l link) PeerUp(id keys.Key) error {
	ln, err := l.c.pool.net.Listen(NormalizeBind(l.c.bind))
	if err != nil {
		return err
	}
	l.c.adoptListenerLocked(id, ln)
	return nil
}

// adoptListenerLocked wires an already-bound listener up as peer id's
// endpoint. Callers hold c.Mu.
func (c *Cluster) adoptListenerLocked(id keys.Key, ln net.Listener) {
	ps := &peerServer{id: id, addr: AdvertiseAddr(ln.Addr().String(), c.advHost), ln: ln,
		conns: make(map[net.Conn]struct{})}
	c.addrs[id] = ps.addr
	c.servers = append(c.servers, ps)
	c.wg.Add(1)
	go c.serve(ps)
}

// PeerDown forgets the departed peer's address and tears its endpoint
// down, if it had one here: listener, accepted server connections,
// and the pooled client connection. Hops holding the stale address
// fail fast and re-resolve through the redirect/retry bounds instead
// of waiting on a dead socket.
func (l link) PeerDown(id keys.Key) {
	c := l.c
	c.Mu.Lock()
	delete(c.addrs, id)
	var ps *peerServer
	for i, s := range c.servers {
		if s.id == id {
			ps = s
			c.servers = append(c.servers[:i], c.servers[i+1:]...)
			break
		}
	}
	c.Mu.Unlock()
	if ps != nil {
		ps.close()
		c.pool.evict(ps.addr)
	}
}

// Rename re-keys the address of the peer a balancing round renamed,
// and its listener if it is local. The pool keys by address, so
// pooled connections stay valid.
//
// dlptlint:held Mu — the runtime calls it under the write lock, which
// also licenses the ps.id write.
func (l link) Rename(from, to keys.Key) {
	c := l.c
	if addr, ok := c.addrs[from]; ok {
		c.addrs[to] = addr
		delete(c.addrs, from)
	}
	for _, ps := range c.servers {
		if ps.id == from {
			ps.id = to
			return
		}
	}
}

// Ship sends one successor batch as a REPLICA frame over the pooled
// connection to the target peer's listener, where it is installed
// under the topology write lock, and waits for the acknowledging
// RESPONSE (whose Logical field carries the installed count).
func (l link) Ship(tc trace.Context, b core.ReplicaBatch) (int, error) {
	c := l.c
	c.Mu.RLock()
	addr := c.addrs[b.To]
	c.Mu.RUnlock()
	if addr == "" {
		return 0, fmt.Errorf("transport: no address for replica target %q", b.To)
	}
	msg, err := c.pool.rawRoundTrip(context.Background(), addr, func(fc *frameConn, id uint64) error {
		return fc.writeReplica(id, tc, &b)
	})
	if err != nil {
		return 0, err
	}
	var resp overlay.Reply
	if err := Unmarshal(msg.payload, (*reply)(&resp)); err != nil {
		return 0, err
	}
	if resp.Err != "" {
		return 0, errors.New(resp.Err)
	}
	return resp.Logical, nil
}

// Send writes the hop as one frame to peer to's listener. A hop with
// no return address comes from this cluster's own originator: it is
// stamped with the first local listener's, where handleConn completes
// the call. A transport failure — dial refused, write on a broken
// socket — means the address was stale: the peer behind it departed,
// crashed, or a Balance round renamed the routing identities while the
// hop was resolving. The pool has already evicted the dead connection
// by then, so Send re-resolves the node's current host once and retries
// on a fresh dial (routing is an idempotent read: a frame the first
// attempt did deliver costs a duplicate reply, which the originator
// drops).
func (l link) Send(ctx context.Context, to keys.Key, h overlay.Hop) error {
	c := l.c
	c.Mu.RLock()
	addr := c.addrs[to]
	if h.ReplyTo == "" && len(c.servers) > 0 {
		h.ReplyTo = c.servers[0].addr
	}
	c.Mu.RUnlock()
	if h.ReplyTo == "" {
		return errors.New("transport: no local listener to take the reply")
	}
	write := func(fc *frameConn) error { return fc.writeHop(&h) }
	err := c.pool.send(ctx, addr, write)
	if err == nil || ctx.Err() != nil || c.Stopped() {
		return err
	}
	if addr = c.hostAddr(h.At); addr == "" {
		return err
	}
	return c.pool.send(ctx, addr, write)
}

// hostAddr resolves the listener address of the peer hosting node k
// now; empty when the node has no host or the host no address.
func (c *Cluster) hostAddr(k keys.Key) string {
	c.Mu.RLock()
	defer c.Mu.RUnlock()
	host, _ := c.Net.HostOf(k)
	return c.addrs[host]
}

// Reply writes the answer that ends h straight to its originator: one
// RESPONSE to the hop's return address, under the originator's id. A
// result too large for one frame degrades to an in-band error so the
// caller fails cleanly; a reply that cannot be delivered is tried once
// more on a fresh dial.
func (l link) Reply(h overlay.Hop, rep overlay.Reply) error {
	c := l.c
	write := func(fc *frameConn) error { return fc.writeResponse(h.Origin, &rep) }
	ctx := context.Background()
	err := c.pool.send(ctx, h.ReplyTo, write)
	if errors.Is(err, errFrameTooLarge) {
		rep = overlay.Reply{Err: err.Error(), Logical: rep.Logical, Physical: rep.Physical}
	}
	if err != nil && !c.Stopped() {
		err = c.pool.send(ctx, h.ReplyTo, write)
	}
	return err
}
