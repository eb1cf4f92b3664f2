// The client half of the wire protocol: a pool of persistent,
// multiplexed connections, one per remote listener address. Routed
// frames and their replies are one-way sends on the shared connection
// (send); REPLICA and control frames are round trips tagged with a
// fresh id, whose replies a per-connection demux loop routes back by
// id, as it does the batches of a QUERY stream. Cancelling a waiting
// round trip or stream sends a CANCEL frame — the id is freed, the
// connection survives.
//
// The pool is keyed by listener address, not peer id: balancing
// renames re-key peer ids over the same listeners, so pooled
// connections stay valid across every Balance round by construction.
// Removing or crashing a peer closes its listener and evicts its
// pooled connection, so sends to the stale address fail fast and
// re-resolve.

package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/obs"
)

// dialTimeout bounds a pool dial so a hung connect cannot wedge
// eviction or Stop (both wait for an in-flight dial to settle).
const dialTimeout = 5 * time.Second

// connPool owns the client side of every wire conversation.
type connPool struct {
	quit <-chan struct{}
	wg   *sync.WaitGroup // cluster's group; tracks demux loops
	net  Net             // dials every connection
	met  *obs.Metrics    // wire-byte accounting of every dialed frameConn; nil-safe

	mu     sync.Mutex
	conns  map[string]*poolConn // guarded by mu
	closed bool                 // guarded by mu

	// dials counts dials over the pool's lifetime: the
	// amortization the pool exists for, asserted by tests.
	dials  atomic.Int64
	nextID atomic.Uint64
}

// poolConn is one shared connection plus its in-flight tables.
type poolConn struct {
	addr string

	// ready is closed once the dial finished (fc or dialErr set);
	// concurrent getters wait on it instead of dialing again.
	ready   chan struct{}
	dialErr error
	fc      *frameConn

	mu sync.Mutex
	// streams holds the in-flight streaming queries multiplexed on
	// this connection, keyed by request id.
	streams map[uint64]*clientStream // guarded by mu
	// raw holds the in-flight round trips (REPLICA, JOIN, LEAVE,
	// APPLY, STATUS, ADMIN, ...): their replies come back as typed
	// frames the pool does not decode.
	raw map[uint64]chan rawMsg // guarded by mu
	err error                  // terminal transport error; set once under mu; guarded by mu
}

// rawMsg is one demuxed round-trip reply: the reply frame's type
// and a copy of its payload (the demux loop's read buffer is reused,
// so the payload must not alias it), or the transport error that
// broke the connection.
type rawMsg struct {
	typ     byte
	payload []byte
	err     error
}

// streamMsg is one demuxed stream event: a batch of keys (info
// carries the traversal counters so far), the STREAM_END totals, or
// the transport error that broke the connection.
type streamMsg struct {
	batch []keys.Key
	end   bool
	info  streamEnd
	err   error
}

// clientStream is the demux-side handle of one streaming query. The
// demux loop delivers into ch with backpressure while the consumer is
// alive; gone (closed by the consumer on early exit) unblocks it so an
// abandoned stream can never wedge the shared connection.
type clientStream struct {
	ch   chan streamMsg
	gone chan struct{}
}

// deliver hands one event to the consumer, dropping it if the
// consumer already left.
func (cs *clientStream) deliver(msg streamMsg) {
	select {
	case cs.ch <- msg:
	case <-cs.gone:
	}
}

func newConnPool(quit <-chan struct{}, wg *sync.WaitGroup, n Net, met *obs.Metrics) *connPool {
	return &connPool{quit: quit, wg: wg, net: n, met: met, conns: make(map[string]*poolConn)}
}

// get returns the shared connection to addr, dialing it on first use.
// Concurrent getters for one address share a single dial.
func (p *connPool) get(ctx context.Context, addr string) (*poolConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrStopped
	}
	pc, ok := p.conns[addr]
	if !ok {
		pc = &poolConn{
			addr:    addr,
			ready:   make(chan struct{}),
			streams: make(map[uint64]*clientStream),
			raw:     make(map[uint64]chan rawMsg),
		}
		p.conns[addr] = pc
		// The dial is shared by every getter of this address, so it
		// must not be governed by any single getter's context: a
		// cancelled first getter would poison the entry for callers
		// whose contexts are live. dialTimeout bounds it instead.
		p.wg.Add(1)
		go p.dial(pc)
	}
	p.mu.Unlock()
	select {
	case <-pc.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.quit:
		return nil, ErrStopped
	}
	if pc.dialErr != nil {
		return nil, pc.dialErr
	}
	pc.mu.Lock()
	err := pc.err
	pc.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// dial connects pc and starts its demux loop. On failure the entry is
// removed so the next get retries a fresh dial.
func (p *connPool) dial(pc *poolConn) {
	defer p.wg.Done()
	defer close(pc.ready)
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	conn, err := p.net.DialContext(ctx, pc.addr)
	cancel()
	if err != nil {
		pc.dialErr = err
		p.drop(pc)
		return
	}
	p.mu.Lock()
	if p.closed {
		delete(p.conns, pc.addr)
		p.mu.Unlock()
		_ = conn.Close()
		pc.dialErr = ErrStopped
		return
	}
	p.dials.Add(1)
	pc.fc = newFrameConn(conn)
	pc.fc.met = p.met
	p.wg.Add(1)
	p.mu.Unlock()
	go p.demux(pc)
}

// demux is the per-connection reader: it hands reply frames to the
// waiting round trips and stream events to their consumers, by id.
// Replies for ids nobody waits for (cancelled upstream) are dropped.
// A read error breaks the connection: everything in flight on it
// fails fast and the entry leaves the pool.
func (p *connPool) demux(pc *poolConn) {
	defer p.wg.Done()
	for {
		typ, id, _, payload, err := pc.fc.readFrame()
		if err != nil {
			p.fail(pc, err)
			return
		}
		switch typ {
		case frameResponse, FrameHello, FrameStatusResp, FrameAdminResp,
			FrameElectResp, FrameEpochOpenResp, FrameFetchResp:
			pc.mu.Lock()
			rch := pc.raw[id]
			delete(pc.raw, id)
			pc.mu.Unlock()
			if rch != nil {
				rch <- rawMsg{typ: typ, payload: append([]byte(nil), payload...)}
			}
		case frameStream:
			pc.mu.Lock()
			cs := pc.streams[id]
			pc.mu.Unlock()
			if cs == nil {
				continue // consumer closed the stream: don't decode what is still in flight
			}
			batch, progress, err := decodeStreamBatch(payload)
			if err != nil {
				p.fail(pc, err)
				return
			}
			cs.deliver(streamMsg{batch: batch, info: progress})
		case frameStreamEnd:
			var end streamEnd
			if err := Unmarshal(payload, &end); err != nil {
				p.fail(pc, err)
				return
			}
			pc.mu.Lock()
			cs := pc.streams[id]
			delete(pc.streams, id)
			pc.mu.Unlock()
			if cs != nil {
				cs.deliver(streamMsg{end: true, info: end})
			}
		default:
			// unknown frame type: ignore for forward compat
		}
	}
}

// openStream registers a fresh streaming query on pc and returns its
// id and demux handle. The caller writes the QUERY frame itself.
// The delivery channel holds a full server credit window plus the
// STREAM_END, so the demux loop never blocks on a slow-but-alive
// consumer — only on one that is further behind than that, which the
// server-side credit pause prevents from ever happening.
func (p *connPool) openStream(pc *poolConn) (uint64, *clientStream, error) {
	id := p.nextID.Add(1)
	cs := &clientStream{ch: make(chan streamMsg, streamMaxInflight+1), gone: make(chan struct{})}
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return 0, nil, err
	}
	pc.streams[id] = cs
	pc.mu.Unlock()
	return id, cs, nil
}

// forgetStream removes a streaming query's demux entry (early
// consumer exit); the caller follows up with a CANCEL frame.
func (pc *poolConn) forgetStream(id uint64) {
	pc.mu.Lock()
	delete(pc.streams, id)
	pc.mu.Unlock()
}

// send puts one frame on the shared connection to addr and returns
// without waiting for anything back — the routed path's only
// acknowledgement is the reply the originator waits for. An unwritten
// frame leaves the connection good; any other write error breaks it,
// so the next send dials fresh.
func (p *connPool) send(ctx context.Context, addr string, write func(fc *frameConn) error) error {
	pc, err := p.get(ctx, addr)
	if err != nil {
		return err
	}
	if err := write(pc.fc); err != nil {
		if !unwritten(err) {
			p.fail(pc, err)
		}
		return err
	}
	return nil
}

// unwritten reports a write error that put nothing on the wire — a
// frame over the size limit, or one a fault rule dropped — so only
// that frame is undeliverable and the connection stays consistent.
func unwritten(err error) bool {
	return errors.Is(err, errFrameTooLarge) || errors.Is(err, ErrInjectedDrop)
}

func (pc *poolConn) forgetRaw(id uint64) {
	pc.mu.Lock()
	delete(pc.raw, id)
	pc.mu.Unlock()
}

// rawRoundTrip is the request/reply protocol on the connection to
// addr: register a fresh id, write the frame, await the demuxed reply,
// handed back undecoded. An unwritten frame leaves the connection good;
// any other write error breaks it. Cancellation sends a CANCEL frame
// and abandons the id; the connection keeps serving the other
// in-flight round trips.
func (p *connPool) rawRoundTrip(ctx context.Context, addr string, write func(fc *frameConn, id uint64) error) (rawMsg, error) {
	pc, err := p.get(ctx, addr)
	if err != nil {
		return rawMsg{}, err
	}
	id := p.nextID.Add(1)
	ch := make(chan rawMsg, 1)
	pc.mu.Lock()
	if pc.err != nil {
		err := pc.err
		pc.mu.Unlock()
		return rawMsg{}, err
	}
	pc.raw[id] = ch
	pc.mu.Unlock()

	if err := write(pc.fc, id); err != nil {
		pc.forgetRaw(id)
		if !unwritten(err) {
			p.fail(pc, err)
		}
		return rawMsg{}, err
	}
	select {
	case msg := <-ch:
		return msg, msg.err
	case <-ctx.Done():
		pc.forgetRaw(id)
		_ = pc.fc.writeCancel(id) // best effort: free the remote stream
		return rawMsg{}, ctx.Err()
	case <-p.quit:
		pc.forgetRaw(id)
		return rawMsg{}, ErrStopped
	}
}

// fail marks pc broken, fails every in-flight round-trip, closes the
// socket and drops the pool entry so the next send redials fresh.
func (p *connPool) fail(pc *poolConn, err error) {
	pc.mu.Lock()
	if pc.err == nil {
		pc.err = err
	}
	drainStreams := pc.streams
	pc.streams = make(map[uint64]*clientStream)
	drainRaw := pc.raw
	pc.raw = make(map[uint64]chan rawMsg)
	pc.mu.Unlock()
	for _, cs := range drainStreams {
		cs.deliver(streamMsg{err: err})
	}
	for _, rch := range drainRaw {
		rch <- rawMsg{err: err}
	}
	_ = pc.fc.Close()
	p.drop(pc)
}

// drop removes pc's pool entry unless a redial already replaced it.
func (p *connPool) drop(pc *poolConn) {
	p.mu.Lock()
	if cur, ok := p.conns[pc.addr]; ok && cur == pc {
		delete(p.conns, pc.addr)
	}
	p.mu.Unlock()
}

// evict closes and forgets the connection to addr, if any. Called
// when the peer behind addr is removed or crashes: whatever is in
// flight on it fails fast instead of waiting on a dead socket.
func (p *connPool) evict(addr string) {
	p.mu.Lock()
	pc := p.conns[addr]
	delete(p.conns, addr)
	p.mu.Unlock()
	if pc == nil {
		return
	}
	<-pc.ready // a concurrent first dial finishes before we close
	if pc.fc != nil {
		_ = pc.fc.Close() // demux loop observes the close and drains
	}
}

// closeAll evicts every connection; subsequent gets fail ErrStopped.
// After the cluster's WaitGroup settles the pool is drained: each
// demux loop removes its own entry on the way out.
func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	conns := make([]*poolConn, 0, len(p.conns))
	for _, pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	for _, pc := range conns {
		<-pc.ready
		if pc.fc != nil {
			_ = pc.fc.Close()
		}
	}
}

// size reports the live pooled-connection count.
func (p *connPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}
