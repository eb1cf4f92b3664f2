// The STREAM path, both ends: the server-side walk that leaves as
// credit-windowed front-coded frames, and the client's WireStream that
// pulls them off the pooled connection and feeds the window.

package transport

import (
	"context"
	"errors"
	"sync"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// queryBatchVisits bounds the node visits per read-lock hold of the
// server-side traversal; a frame is filled over as many holds as it
// takes. The stream's flow control is one slow-started variable, the
// credit window in keys: it starts at streamInitKeys and doubles with
// every STREAM_ACK up to streamWindowKeys. A frame carries up to
// min(window, streamFrameKeys) keys (it leaves early once its keys
// pass streamFrameBytes) and window/frame-size frames may be
// unacknowledged. So the first key leaves after one short step, an
// abandoned stream has cost a frame or two, a consumer that stops
// pulling halts the walk (flow control the kernel's socket buffers
// cannot provide), and a drained scan soon moves 512 keys per write
// and ACK. The values come from a sweep on scan-tcp (CHANGES.md PR 13).
const (
	queryBatchVisits = 256
	streamInitKeys   = 32
	streamFrameKeys  = 512
	streamFrameBytes = 16 << 10
	streamWindowKeys = 2048
	// streamMaxInflight is the most STREAM frames ever unacknowledged.
	streamMaxInflight = streamWindowKeys / streamFrameKeys
)

// serveQuery runs one streaming subtree query server-side: the walker
// advances in bounded read-locked steps, its matches leave as STREAM
// frames sized by the slow-started credit window, and the traversal
// totals close the stream as a STREAM_END frame — in the same write as
// the last STREAM when the walk ends inside a frame. The registered
// cancel (CANCEL frame from the consumer, or connection teardown)
// aborts the traversal at the next step boundary — the limit pushdown
// and early-exit contract on the wire.
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
	w := core.NewQueryWalker(c.Net, core.QuerySpec{
		Range:  q.Range,
		Prefix: q.Prefix,
		Lo:     q.Lo,
		Hi:     q.Hi,
		Limit:  q.Limit,
	})
	// The walker's phase spans parent under the wire context, so the
	// server-side walk joins the client's trace; FinishTrace flushes
	// the final phase even when the stream aborts early.
	w.TraceUnder(tc)
	defer w.FinishTrace()
	if !w.Empty() {
		// The climb/descend phases ran hop by hop as a QROUTE frame;
		// resume directly in the subtree walk at the covering node,
		// folding the route's counters in.
		c.Mu.RLock()
		w.ResumeWalk(q.Entry, core.QueryResult{
			LogicalHops:  q.Logical,
			PhysicalHops: q.Physical,
			NodesVisited: q.Visited,
		})
		c.Mu.RUnlock()
	}
	var out []keys.Key // one batch buffer for the whole stream
	var st streamEnd
	// inflight counts the STREAM frames not yet acknowledged.
	inflight, window, more := 0, streamInitKeys, !w.Empty()
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
		for size := 0; more && st.Err == "" && len(out) < frameKeys && size < streamFrameBytes; {
			select {
			case <-ctx.Done():
				st.Err = ctx.Err().Error()
			case <-c.Quit:
				st.Err = ErrStopped.Error()
			default:
				n0 := len(out)
				c.Mu.RLock()
				out, more = w.StepN(out, frameKeys-n0, queryBatchVisits)
				c.Mu.RUnlock()
				for _, k := range out[n0:] {
					size += len(k)
				}
			}
		}
		ws := w.Stats()
		c.queryVisits.Add(int64(ws.NodesVisited - st.Visited))
		st.Logical, st.Physical, st.Visited = ws.LogicalHops, ws.PhysicalHops, ws.NodesVisited
		last := !more || st.Err != ""
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

// WireStream is the client half of one streaming query: STREAM
// batches arrive multiplexed on the pooled connection and are pulled
// off in lexicographic order; STREAM_END closes the stream with the
// traversal totals. Closing early (or cancelling the query context)
// sends a CANCEL frame that frees the server-side traversal while the
// shared connection survives.
type WireStream struct {
	c   *Cluster
	pc  *poolConn
	id  uint64
	cs  *clientStream
	ctx context.Context

	cur      []keys.Key // the frame being consumed; all substrings of one arena
	pos      int
	ended    bool // no more events will be consumed
	finished bool // STREAM_END received: the server is already done
	stats    core.QueryResult
	err      error

	span  trace.Handle // the query's root span (inactive untraced)
	met   *obs.Metrics // cleared once the end-to-end latency is observed
	began time.Time

	closeOnce sync.Once
}

// finish closes the query's root span and observes its end-to-end
// latency; idempotent across the stream's several end paths.
func (s *WireStream) finish() {
	s.span.End()
	if s.met != nil && !s.began.IsZero() {
		s.met.QueryLatency.Observe(time.Since(s.began).Seconds())
		s.met = nil
	}
}

// StreamQuery starts a streaming subtree query over the wire in two
// phases. The entry node is drawn from the same seeded stream the
// slice queries use; the climb/descend phases then travel between
// listeners as one QROUTE frame — each step resolved by the peer
// hosting the node, like discovery steps — until the covering node is
// found and reported straight back. The subtree walk opens as a STREAM query at that
// node's host, seeded with the route's counters, and batches stream
// back over the pooled connection.
func (c *Cluster) StreamQuery(ctx context.Context, spec core.QuerySpec) (*WireStream, error) {
	if c.Stopped() {
		return nil, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Range && spec.Hi < spec.Lo {
		// Void by construction: no entry draw, no wire traffic,
		// matching the slice path.
		return &WireStream{ended: true, finished: true}, nil
	}
	anchor := spec.Prefix
	if spec.Range {
		anchor = keys.GCP(spec.Lo, spec.Hi)
	}
	began := time.Now()
	var rr overlay.Reply
	root, ok, err := c.Originate(ctx, "query", overlay.Hop{Query: true, Key: anchor}, &rr)
	if !ok && err == nil {
		return &WireStream{ended: true, finished: true}, nil
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
	pre := core.QueryResult{LogicalHops: rr.Logical,
		PhysicalHops: rr.Physical, NodesVisited: rr.Visited}
	var addr string
	if rr.Found {
		addr = c.hostAddr(rr.Anchor)
	}
	if addr == "" {
		// The route hit a node lost to churn, or the anchor has no host
		// any more: the walk yields nothing, with the route's counters
		// as totals (walker behaviour).
		ws := &WireStream{ended: true, finished: true, stats: pre,
			span: root, met: c.Met, began: began}
		ws.finish()
		return ws, nil
	}
	q := &queryReq{
		Range:    spec.Range,
		Prefix:   spec.Prefix,
		Lo:       spec.Lo,
		Hi:       spec.Hi,
		Limit:    spec.Limit,
		Entry:    rr.Anchor,
		Walk:     true,
		Logical:  rr.Logical,
		Physical: rr.Physical,
		Visited:  rr.Visited,
	}
	pc, id, cs, err := c.openWireQuery(ctx, root.Context(), addr, q)
	if err != nil {
		// The address was stale (departed peer, Balance rename):
		// re-resolve the anchor's current host once and retry on a
		// fresh dial, as Send does for routed hops.
		if ctx.Err() != nil || errors.Is(err, ErrStopped) {
			root.End()
			return nil, err
		}
		retryAddr := c.hostAddr(rr.Anchor)
		if retryAddr == "" {
			root.End()
			return nil, err
		}
		if pc, id, cs, err = c.openWireQuery(ctx, root.Context(), retryAddr, q); err != nil {
			root.End()
			return nil, err
		}
	}
	return &WireStream{c: c, pc: pc, id: id, cs: cs, ctx: ctx, stats: pre,
		span: root, met: c.Met, began: began}, nil
}

// openWireQuery registers a stream on the pooled connection to addr
// and puts its QUERY frame on the wire.
func (c *Cluster) openWireQuery(ctx context.Context, tc trace.Context, addr string, q *queryReq) (*poolConn, uint64, *clientStream, error) {
	pc, err := c.pool.get(ctx, addr)
	if err != nil {
		return nil, 0, nil, err
	}
	id, cs, err := c.pool.openStream(pc)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := pc.fc.writeQuery(id, tc, q); err != nil {
		pc.forgetStream(id)
		if !errors.Is(err, errFrameTooLarge) {
			c.pool.fail(pc, err)
		}
		return nil, 0, nil, err
	}
	return pc, id, cs, nil
}

// Next returns the next matching key; ok == false means the stream is
// exhausted (see Err). The keys of one STREAM frame are substrings of
// a single string decoded for that frame, so retaining one key retains
// at most one frame (streamFrameBytes or so); strings.Clone a key kept
// far beyond the stream.
func (s *WireStream) Next() (keys.Key, bool) {
	for {
		if s.pos < len(s.cur) {
			k := s.cur[s.pos]
			s.pos++
			return k, true
		}
		if s.ended {
			return keys.Epsilon, false
		}
		select {
		case msg := <-s.cs.ch:
			switch {
			case msg.err != nil:
				s.err, s.ended = msg.err, true
				s.finish()
				return keys.Epsilon, false
			case msg.end:
				s.ended, s.finished = true, true
				s.stats = msg.info.result()
				if msg.info.Err != "" {
					s.err = errors.New(msg.info.Err)
				}
				s.finish()
				return keys.Epsilon, false
			default:
				s.cur, s.pos = msg.batch, 0
				s.stats = msg.info.result()
				// Feed the server's credit window: one ACK per frame
				// pulled keeps the traversal flowing (and, early on,
				// growing); a consumer that stops pulling starves it.
				_ = s.pc.fc.writeStreamAck(s.id)
			}
		case <-s.ctx.Done():
			s.err, s.ended = s.ctx.Err(), true
			s.finish()
			return keys.Epsilon, false
		case <-s.c.Quit:
			s.err, s.ended = ErrStopped, true
			s.finish()
			return keys.Epsilon, false
		}
	}
}

// Err reports the error that terminated the stream early, nil after a
// normal end of stream.
func (s *WireStream) Err() error { return s.err }

// Stats returns the traversal counters as of the last batch pulled
// (every STREAM frame carries the server's running totals);
// STREAM_END replaces them with the final totals.
func (s *WireStream) Stats() core.QueryResult { return s.stats }

// Close releases the stream. If the server is still traversing, the
// demux entry is dropped and a CANCEL frame frees the server-side
// walk — the pooled connection itself stays open and keeps serving
// the other multiplexed requests. After Close, Next reports end of
// stream even if batches were still buffered.
func (s *WireStream) Close() error {
	s.closeOnce.Do(func() {
		if s.cs != nil {
			if !s.finished {
				s.pc.forgetStream(s.id)
				_ = s.pc.fc.writeCancel(s.id)
			}
			close(s.cs.gone)
		}
		s.ended = true
		s.cur, s.pos = nil, 0
		s.finish()
	})
	return nil
}
