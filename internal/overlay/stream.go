package overlay

import (
	"context"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/trace"
)

// chunkKeys bounds the matches one pull materializes and chunkVisits
// the node visits of one read-lock hold: together they bound how long a
// writer waits behind a scan, dense or sparse.
const (
	chunkKeys   = 32
	chunkVisits = 256
)

// Source is what a Stream pulls its matches from: the in-process walk,
// or batches that arrive from elsewhere (the tcp client's frames).
type Source interface {
	// Pull returns the next batch, appended to dst when the source
	// materializes its own, and whether more may follow; err, with
	// more false, is what ended the source early.
	Pull(ctx context.Context, dst []keys.Key) (batch []keys.Key, more bool, err error)
	// Stats returns the traversal counters accumulated so far.
	Stats() core.QueryResult
	// Halt releases the source. The stream calls it exactly once,
	// however the stream ends, and pulls nothing afterwards.
	Halt()
}

// Stream is the one streaming subtree query: a pull generator over a
// Source. Every refill is one Pull; between pulls nothing is held and
// nothing runs, so a consumer may interleave other operations, stop
// early or walk away — a walk then never touches the rest of the tree.
// Streams are single-consumer.
type Stream struct {
	r     *Runtime
	src   Source
	walk  walker // the source of an in-process stream, so boxing it allocates nothing
	ctx   context.Context
	began time.Time // zero: the stream observes no latency

	buf  []keys.Key
	pos  int
	done bool
	err  error
}

// walker is the in-process Source: a started core.QueryWalker, stepped
// one chunk per hold of Mu's read side.
type walker struct {
	r *Runtime
	w *core.QueryWalker
}

func (w *walker) Pull(_ context.Context, dst []keys.Key) ([]keys.Key, bool, error) {
	w.r.Mu.RLock()
	batch, more := w.w.StepN(dst, chunkKeys, chunkVisits)
	w.r.Mu.RUnlock()
	return batch, more, nil
}

func (w *walker) Stats() core.QueryResult { return w.w.Stats() }

// Halt closes the walker's open phase span and records its visit delta.
func (w *walker) Halt() { w.w.FinishTrace() }

// Stream wraps a source of the embedding cluster's own. began is when
// the query began: an instrumented runtime observes the end-to-end
// latency from it once the stream ends; zero observes nothing.
func (r *Runtime) Stream(ctx context.Context, src Source, began time.Time) *Stream {
	return &Stream{r: r, src: src, ctx: ctx, began: began}
}

// walkStream is the stream over an in-process walker.
func (r *Runtime) walkStream(ctx context.Context, w *core.QueryWalker, began time.Time) *Stream {
	s := &Stream{r: r, walk: walker{r, w}, ctx: ctx, began: began,
		buf: make([]keys.Key, 0, chunkKeys)}
	s.src = &s.walk
	return s
}

// StreamQuery starts a streaming subtree query: a walker entered at a
// node DrawEntryLocked draws, so a replayed workload enters the tree at
// the same nodes; the traversal happens as the consumer pulls, and a
// limit or an early exit prunes it.
func (r *Runtime) StreamQuery(ctx context.Context, spec core.QuerySpec) (*Stream, error) {
	if r.Stopped() {
		return nil, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var began time.Time
	if r.Met != nil {
		began = time.Now()
	}
	r.Mu.RLock()
	w := core.NewQueryWalker(r.Net, spec)
	if !w.Empty() {
		if entry, _, ok := r.DrawEntryLocked(); ok {
			w.Start(entry)
		}
	}
	r.Mu.RUnlock()
	return r.walkStream(ctx, w, began), nil
}

// WalkFrom is the serving end of a query whose climb and descend ran
// elsewhere, hop by hop: a stream over the subtree walk resumed at
// anchor with the route's counters pre folded in, its phase spans
// under the propagated trace context tc. It observes no latency — the
// client that opened the query observes it end to end.
func (r *Runtime) WalkFrom(ctx context.Context, spec core.QuerySpec, anchor keys.Key, pre core.QueryResult, tc trace.Context) *Stream {
	r.Mu.RLock()
	w := core.NewQueryWalker(r.Net, spec)
	w.TraceUnder(tc)
	w.ResumeWalk(anchor, pre)
	r.Mu.RUnlock()
	return r.walkStream(ctx, w, time.Time{})
}

// Next returns the next matching key in lexicographic order; ok ==
// false means the stream ended — naturally, by Close, or early (see
// Err) on a cancelled context, a stopped cluster or a failed source,
// the first two checked between pulls.
func (s *Stream) Next() (keys.Key, bool) {
	for s.pos == len(s.buf) {
		switch {
		case s.done:
			return keys.Epsilon, false
		case s.ctx.Err() != nil:
			s.finish(s.ctx.Err())
		case s.r.Stopped():
			s.finish(ErrStopped)
		default:
			batch, more, err := s.src.Pull(s.ctx, s.buf[:0])
			s.buf, s.pos = batch, 0
			if !more {
				s.finish(err)
			}
		}
	}
	k := s.buf[s.pos]
	s.pos++
	return k, true
}

// finish ends the stream once, however it ends: the source halts and
// the query latency is observed.
func (s *Stream) finish(err error) {
	s.done, s.err = true, err
	s.src.Halt()
	if m := s.r.Met; m != nil && !s.began.IsZero() {
		m.QueryLatency.Observe(time.Since(s.began).Seconds())
	}
}

// Ended reports whether Next will yield nothing more: the source has
// ended and every key it delivered has been taken.
func (s *Stream) Ended() bool { return s.done && s.pos == len(s.buf) }

// Err reports the error that ended the stream early, nil after a
// normal end of stream or a Close.
func (s *Stream) Err() error { return s.err }

// Stats returns the traversal counters accumulated so far.
func (s *Stream) Stats() core.QueryResult { return s.src.Stats() }

// Close halts the source and discards buffered keys: Next reports end
// of stream afterwards. Idempotent.
func (s *Stream) Close() error {
	if !s.done {
		s.finish(nil)
	}
	s.buf, s.pos = nil, 0
	return nil
}
