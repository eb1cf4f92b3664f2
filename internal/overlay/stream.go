package overlay

import (
	"context"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
)

// chunkKeys bounds the matches one pull materializes and chunkVisits
// the node visits of one read-lock hold: together they bound how long a
// writer waits behind a scan, dense or sparse.
const (
	chunkKeys   = 32
	chunkVisits = 256
)

// Stream is the in-process streaming subtree query: a pull generator
// over a started core.QueryWalker. Every refill resumes the walk under
// one hold of Mu's read side; between pulls nothing is held and nothing
// runs, so a consumer may interleave other operations, stop early or
// walk away — the walker then never touches the rest of the tree.
// Streams are single-consumer.
type Stream struct {
	r     *Runtime
	w     *core.QueryWalker
	ctx   context.Context
	began time.Time // set on an instrumented runtime only

	buf  []keys.Key
	pos  int
	done bool
	err  error
}

// Stream wraps a walker whose entry the caller has drawn (under the
// lock its engine draws entries under) and started.
func (r *Runtime) Stream(ctx context.Context, w *core.QueryWalker) *Stream {
	s := &Stream{r: r, w: w, ctx: ctx}
	if r.Met != nil {
		s.began = time.Now()
	}
	return s
}

// Next returns the next matching key in lexicographic order; ok ==
// false means the stream ended — naturally, by Close, or early (see
// Err) on a cancelled context or a stopped cluster, both checked
// between chunks.
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
			s.r.Mu.RLock()
			batch, more := s.w.StepN(s.buf[:0], chunkKeys, chunkVisits)
			s.r.Mu.RUnlock()
			s.buf, s.pos = batch, 0
			if !more {
				s.finish(nil)
			}
		}
	}
	k := s.buf[s.pos]
	s.pos++
	return k, true
}

// finish ends the stream once, however it ends: the walker's open
// phase span closes, its visit delta is recorded and the query latency
// observed.
func (s *Stream) finish(err error) {
	s.done, s.err = true, err
	s.w.FinishTrace()
	if m := s.r.Met; m != nil {
		m.QueryLatency.Observe(time.Since(s.began).Seconds())
	}
}

// Err reports the error that ended the stream early, nil after a
// normal end of stream or a Close.
func (s *Stream) Err() error { return s.err }

// Stats returns the traversal counters accumulated so far.
func (s *Stream) Stats() core.QueryResult { return s.w.Stats() }

// Close halts the walk and discards buffered keys: Next reports end of
// stream afterwards. Idempotent.
func (s *Stream) Close() error {
	if !s.done {
		s.finish(nil)
	}
	s.buf, s.pos = nil, 0
	return nil
}
