// The originating side of the routed path: the pending table calls
// wait in for their direct reply, the sweeper that ages them, the
// entry draw, and re-issue from a fresh entry when a frame is lost.

package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// reissueAfter is the sweeper's period: a call still unanswered after
// one to two periods counts as lost and is re-issued. It is far above
// any healthy discovery (tens of microseconds on loopback, a dial's
// worth on a cold pool), because a needless re-issue costs an extra
// entry draw. maxAttempts bounds the issues of one call.
const (
	reissueAfter = 500 * time.Millisecond
	maxAttempts  = 3
)

// pendingCall is one originated frame awaiting its direct reply.
// Whoever removes it from Cluster.pending — complete on the reply, the
// sweeper when it is overdue — owes done exactly one send (buffered,
// so that send never blocks); a caller that gives up removes it
// itself and is owed nothing.
type pendingCall struct {
	done chan bool // true: resp and err hold the decoded reply; false: overdue
	born uint64    // Cluster.tick at registration
	resp response
	err  error
}

// callPool recycles pendingCalls (and their channels) across calls.
var callPool = sync.Pool{New: func() any { return &pendingCall{done: make(chan bool, 1)} }}

// complete hands a direct reply to the call waiting on id. Replies
// for ids nobody waits on — late answers to a call already re-issued
// or abandoned, duplicates — are dropped.
func (c *Cluster) complete(id uint64, payload []byte) {
	c.pmu.Lock()
	p := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if p != nil {
		p.err = decodeResponse(payload, &p.resp)
		p.done <- true
	}
}

// sweep is the cluster's one timer for every pending call: each period
// it expires the calls registered before the previous period began, so
// waiting costs a call no timer and no allocation of its own.
func (c *Cluster) sweep() {
	defer c.wg.Done()
	t := time.NewTicker(reissueAfter)
	defer t.Stop()
	for {
		select {
		case <-c.Quit:
			return
		case <-t.C:
		}
		c.pmu.Lock()
		c.tick++
		for id, p := range c.pending {
			if c.tick-p.born >= 2 {
				delete(c.pending, id)
				p.done <- false
			}
		}
		c.pmu.Unlock()
	}
}

// drawEntry draws the entry node of one attempt and resolves its
// host's address and the address replies should come back to (the
// first local listener; empty when the cluster has none).
func (c *Cluster) drawEntry() (entry, host keys.Key, addr, replyTo string, ok bool) {
	c.entryMu.Lock()
	c.Mu.RLock()
	if entry, ok = c.Net.RandomNodeKey(c.Rng); ok {
		host, _ = c.Net.HostOf(entry)
		addr = c.addrs[host]
		if len(c.servers) > 0 {
			replyTo = c.servers[0].addr
		}
	}
	c.Mu.RUnlock()
	c.entryMu.Unlock()
	return entry, host, addr, replyTo, ok
}

// originate routes h through the overlay and waits for its direct
// reply, one attempt at a time (see attempt), each from a fresh entry
// draw. An attempt is re-issued, up to maxAttempts, when the sweeper
// finds it overdue (the frame or its reply was lost) or at once when a
// hop reports that it could not pass the frame on. ok is false on an
// empty tree (nothing was sent). The root span, named phase, opens
// with the first attempt and is the caller's to end.
func (c *Cluster) originate(ctx context.Context, phase string, h *hop, resp *response) (root trace.Handle, ok bool, err error) {
	r := h.route()
	fresh := *r
	p := callPool.Get().(*pendingCall)
	defer callPool.Put(p)
	for attempt := 1; ; attempt++ {
		entry, host, addr, replyTo, drawn := c.drawEntry()
		if !drawn {
			return root, false, err
		}
		if attempt == 1 {
			root = c.Rec.StartRoot(phase, string(host))
			h.tc = root.Context()
		}
		if replyTo == "" {
			return root, true, errors.New("transport: no local listener to take the reply")
		}
		*r = fresh
		r.At, r.ReplyTo = entry, replyTo
		var retry bool
		if retry, err = c.attempt(ctx, addr, h, p, resp); err == nil {
			return root, true, nil
		}
		// Whatever went wrong, a caller or cluster that gave up
		// meanwhile reports that instead.
		if cerr := ctx.Err(); cerr != nil {
			return root, true, cerr
		}
		if c.Stopped() {
			return root, true, ErrStopped
		}
		if !retry {
			return root, true, err
		}
		if attempt == maxAttempts {
			if !errors.Is(err, ErrNoReply) {
				err = fmt.Errorf("%w: %v", ErrNoReply, err)
			}
			return root, true, err
		}
	}
}

// attempt issues h once: it registers p under a fresh pending id,
// stamps the frame with it and sends it one way to addr, the entry
// node's host; the peer where routing ends answers the frame's ReplyTo
// listener, whose handleConn completes the call. attempt returns when
// the call is answered or overdue, or the caller or the cluster gives
// up — in every case with p withdrawn and quiet. retry reports an
// error a re-issue can cure.
func (c *Cluster) attempt(ctx context.Context, addr string, h *hop, p *pendingCall, resp *response) (retry bool, err error) {
	r := h.route()
	c.pmu.Lock()
	c.lastCall++
	r.Origin, p.born = c.lastCall, c.tick
	c.pending[r.Origin] = p
	c.pmu.Unlock()
	if err := c.forward(ctx, addr, h); err != nil {
		c.abandon(r.Origin, p)
		return true, err
	}
	select {
	case replied := <-p.done:
		if !replied {
			return true, ErrNoReply
		}
		*resp, err = p.resp, p.err
		p.resp, p.err = response{}, nil
		if err == nil && resp.Err != "" {
			return resp.Retry, errors.New(resp.Err)
		}
		return false, err
	case <-ctx.Done():
		c.abandon(r.Origin, p)
		return false, ctx.Err()
	case <-c.Quit:
		c.abandon(r.Origin, p)
		return false, ErrStopped
	}
}

// abandon withdraws a call nobody will wait on any longer. If complete
// or the sweeper got to it first, their send is already owed: take it,
// so the pendingCall is quiet when it is reused.
func (c *Cluster) abandon(id uint64, p *pendingCall) {
	c.pmu.Lock()
	_, waiting := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if !waiting {
		<-p.done
		p.resp, p.err = response{}, nil
	}
}

// Discover routes a discovery over TCP, entering at a random node.
func (c *Cluster) Discover(key keys.Key) (overlay.Result, error) {
	return c.DiscoverContext(context.Background(), key)
}

// DiscoverContext is Discover under a caller context: cancelling ctx
// withdraws the pending call and returns the context error at once.
// The frame still in flight runs out on its own — hops hold no state
// for it — and its reply is dropped on arrival.
func (c *Cluster) DiscoverContext(ctx context.Context, key keys.Key) (overlay.Result, error) {
	if c.Stopped() {
		return overlay.Result{}, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return overlay.Result{}, err
	}
	began := time.Now()
	h := hop{typ: frameRequest, req: request{Key: key, GoingUp: true, route: route{Physical: 1}}}
	var resp response
	root, ok, err := c.originate(ctx, obs.PhaseDiscover, &h, &resp)
	if !ok && err == nil {
		return overlay.Result{Key: key}, nil
	}
	root.SetAttr("key", string(key))
	root.End()
	if c.Met != nil {
		d := time.Since(began)
		c.Met.DiscoverLatency.Observe(d.Seconds())
		c.Met.RecordPhase(obs.PhaseRelay, resp.Physical, d)
	}
	if err != nil {
		return overlay.Result{Key: key}, err
	}
	return overlay.Result{
		Key:          key,
		Found:        resp.Found,
		Values:       resp.Values,
		LogicalHops:  resp.Logical,
		PhysicalHops: resp.Physical,
		Dropped:      resp.Dropped,
	}, nil
}
