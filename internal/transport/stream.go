// The STREAM path, both ends of one overlay.Stream: the serving peer
// fills credit-windowed front-coded frames from a stream over its walk,
// and the client's stream pulls those frames off the pooled connection
// (wireSource) and feeds the window.

package transport

import (
	"context"
	"errors"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// The stream's flow control is one slow-started variable, the credit
// window in keys: it starts at streamInitKeys and doubles with every
// STREAM_ACK up to streamWindowKeys. A frame carries up to
// min(window, streamFrameKeys) keys (it leaves early once its keys
// pass streamFrameBytes) and window/frame-size frames may be
// unacknowledged. So the first key leaves after one short step, an
// abandoned stream has cost a frame or two, a consumer that stops
// pulling halts the walk (flow control the kernel's socket buffers
// cannot provide), and a drained scan soon moves 512 keys per write
// and ACK. The values come from a sweep on scan-tcp (CHANGES.md PR 13).
const (
	streamInitKeys   = 32
	streamFrameKeys  = 512
	streamFrameBytes = 16 << 10
	streamWindowKeys = 2048
	// streamMaxInflight is the most STREAM frames ever unacknowledged.
	streamMaxInflight = streamWindowKeys / streamFrameKeys
)

// serveQuery runs one streaming subtree query server-side: a stream
// over the walk resumed at the routed anchor fills STREAM frames sized
// by the slow-started credit window, and the traversal totals close
// the stream as a STREAM_END frame — in the same write as the last
// STREAM when the walk ends inside a frame. The registered cancel
// (CANCEL frame from the consumer, or connection teardown) ends the
// stream at its next pull — the limit pushdown and early-exit contract
// on the wire.
func (c *Cluster) serveQuery(ctx context.Context, sc *serverConn, id uint64,
	stream serverStream, q queryReq, tc trace.Context) {

	defer func() {
		sc.amu.Lock()
		delete(sc.streams, id)
		sc.amu.Unlock()
		stream.cancel()
	}()
	if !q.Walk {
		// Clients resolve the covering node by QROUTE before they open
		// a stream; a QUERY that skipped it is refused in-band.
		_ = sc.fc.writeStream(id, nil, &streamEnd{Err: "transport: QUERY without a routed anchor"}, true)
		return
	}
	// The climb/descend phases ran hop by hop as a QROUTE frame: the
	// walk resumes at the covering node with the route's counters, its
	// phase spans under the client's trace.
	s := c.WalkFrom(ctx, q.QuerySpec, q.Entry, q.QueryResult, tc)
	defer s.Close()
	out := make([]keys.Key, 0, streamInitKeys) // one frame buffer for the whole stream
	var st streamEnd
	// inflight counts the STREAM frames not yet acknowledged.
	inflight, window := 0, streamInitKeys
	for {
		frameKeys := min(window, streamFrameKeys)
		if inflight >= window/frameKeys {
			// Window exhausted: wait for the consumer to pull a frame
			// (or give up) before touching any more of the tree.
			select {
			case <-stream.acks:
				inflight--
				window = min(2*window, streamWindowKeys)
				continue
			case <-ctx.Done():
			case <-c.Quit:
			}
		}
		out = out[:0]
		for size := 0; len(out) < frameKeys && size < streamFrameBytes; {
			k, ok := s.Next()
			if !ok {
				break
			}
			out = append(out, k)
			size += len(k)
		}
		ws := s.Stats()
		c.queryVisits.Add(int64(ws.NodesVisited - st.NodesVisited))
		st.QueryResult = ws
		last := s.Ended()
		if err := s.Err(); err != nil {
			st.Err = err.Error()
		}
		if err := sc.fc.writeStream(id, out, &st, last); err != nil || last {
			return // the stream ended, or the connection is gone
		}
		inflight++
	}
}

// QueryVisits reports the cumulative node visits of server-side
// streaming query traversals (test observable: it stops growing when
// a cancelled consumer halts the walk).
func (c *Cluster) QueryVisits() int64 { return c.queryVisits.Load() }

// StreamQuery starts a streaming subtree query over the wire in two
// phases, shadowing the runtime's in-process StreamQuery. The entry
// node is drawn from the same seeded stream discoveries draw from; the
// climb/descend phases then travel between listeners as one QROUTE
// frame — each step resolved by the peer hosting the node, like
// discovery steps — until the covering node is found and reported
// straight back. The subtree walk opens as a STREAM query at that
// node's host, seeded with the route's counters, and its batches feed
// the returned stream over the pooled connection. Every query that
// gets this far is one overlay.Stream — void, on an empty tree, routed
// into churn or opened — so each observes its latency once.
func (c *Cluster) StreamQuery(ctx context.Context, spec core.QuerySpec) (*overlay.Stream, error) {
	if c.Stopped() {
		return nil, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	began := time.Now()
	src := &wireSource{c: c}
	if spec.Range && spec.Hi < spec.Lo {
		// Void by construction: no entry draw, no wire traffic,
		// matching the in-process walker.
		return c.Stream(ctx, src, began), nil
	}
	anchor := spec.Prefix
	if spec.Range {
		anchor = keys.GCP(spec.Lo, spec.Hi)
	}
	var rr overlay.Reply
	root, ok, err := c.Originate(ctx, "query", overlay.Hop{Query: true, Key: anchor}, &rr)
	if !ok && err == nil {
		return c.Stream(ctx, src, began), nil // an empty tree yields nothing
	}
	root.SetAttr("anchor", string(anchor))
	if err != nil {
		root.End()
		return nil, err
	}
	if c.Met != nil {
		c.Met.RecordPhase(obs.PhaseQRoute, rr.Physical, time.Since(began))
		// The route's node visits happened hop by hop on the serving
		// peers; the walk phase counts its own from the resumed
		// walker's baseline, so nothing is double counted.
		c.Met.Visits.Add(float64(rr.Visited))
	}
	src.span = root
	src.stats = core.QueryResult{LogicalHops: rr.Logical,
		PhysicalHops: rr.Physical, NodesVisited: rr.Visited}
	var addr string
	if rr.Found {
		addr = c.hostAddr(rr.Anchor)
	}
	if addr == "" {
		// The route hit a node lost to churn, or the anchor has no host
		// any more: the walk yields nothing, with the route's counters
		// as totals (walker behaviour).
		return c.Stream(ctx, src, began), nil
	}
	q := &queryReq{QuerySpec: spec, Entry: rr.Anchor, Walk: true, QueryResult: src.stats}
	if err := src.open(ctx, root.Context(), addr, q); err != nil {
		// The address was stale (departed peer, Balance rename):
		// re-resolve the anchor's current host once and retry on a
		// fresh dial, as Send does for routed hops.
		retryAddr := c.hostAddr(rr.Anchor)
		if ctx.Err() != nil || errors.Is(err, ErrStopped) || retryAddr == "" {
			root.End()
			return nil, err
		}
		if err := src.open(ctx, root.Context(), retryAddr, q); err != nil {
			root.End()
			return nil, err
		}
	}
	return c.Stream(ctx, src, began), nil
}

// wireSource is the client end of one streaming query, the source of
// its overlay.Stream: STREAM batches arrive multiplexed on the pooled
// connection and are pulled off one frame at a time; STREAM_END brings
// the traversal totals. A stream that ends any other way — closed,
// cancelled, the cluster stopped — sends a CANCEL frame that frees the
// server-side walk while the shared connection survives.
type wireSource struct {
	c  *Cluster
	pc *poolConn
	id uint64
	cs *clientStream // nil: nothing was opened, the stream ends at once

	stats    core.QueryResult
	finished bool         // STREAM_END received: the server is already done
	span     trace.Handle // the query's root span (inactive untraced)
}

// open registers the stream on the pooled connection to addr and puts
// its QUERY frame on the wire.
func (w *wireSource) open(ctx context.Context, tc trace.Context, addr string, q *queryReq) error {
	pool := w.c.pool
	pc, err := pool.get(ctx, addr)
	if err != nil {
		return err
	}
	id, cs, err := pool.openStream(pc)
	if err != nil {
		return err
	}
	if err := pc.fc.writeQuery(id, tc, q); err != nil {
		pc.forgetStream(id)
		if !unwritten(err) {
			pool.fail(pc, err)
		}
		return err
	}
	w.pc, w.id, w.cs = pc, id, cs
	return nil
}

// Pull takes the next frame. The keys of one STREAM frame are
// substrings of a single string decoded for that frame, so retaining
// one key retains at most one frame (streamFrameBytes or so);
// strings.Clone a key kept far beyond the stream.
func (w *wireSource) Pull(ctx context.Context, _ []keys.Key) ([]keys.Key, bool, error) {
	if w.cs == nil {
		return nil, false, nil
	}
	select {
	case msg := <-w.cs.ch:
		switch {
		case msg.err != nil:
			return nil, false, msg.err
		case msg.end:
			w.finished, w.stats = true, msg.info.QueryResult
			if msg.info.Err != "" {
				return nil, false, errors.New(msg.info.Err)
			}
			return nil, false, nil
		}
		// Every STREAM frame carries the server's running totals. One
		// ACK per frame pulled feeds the server's credit window, keeping
		// the traversal flowing (and, early on, growing); a consumer
		// that stops pulling starves it.
		w.stats = msg.info.QueryResult
		_ = w.pc.fc.writeStreamAck(w.id)
		return msg.batch, true, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	case <-w.c.Quit:
		return nil, false, ErrStopped
	}
}

// Stats returns the traversal counters as of the last frame pulled.
func (w *wireSource) Stats() core.QueryResult { return w.stats }

// Halt releases the stream: if the server is still traversing, the
// demux entry is dropped and a CANCEL frame frees the server-side walk
// — the pooled connection itself stays open and keeps serving the
// other multiplexed requests. The query's root span ends here.
func (w *wireSource) Halt() {
	if w.cs != nil {
		if !w.finished {
			w.pc.forgetStream(w.id)
			_ = w.pc.fc.writeCancel(w.id)
		}
		close(w.cs.gone)
	}
	w.span.End()
}
