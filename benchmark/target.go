package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dlpt"
	"dlpt/internal/daemon"
)

// wrongAnswer is an answer that disagrees with the model. Unlike an
// error return (counted in failed) it aborts the run with exit status
// 1: a benchmark of wrong answers measures nothing.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

func isWrong(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// listResult is what a completion or range query delivered, reduced
// while streaming so a 4,000-key scan is checked without being stored.
type listResult struct {
	count       int
	first, last string
	ordered     bool
	// firstNs is the time from opening the stream to its first key
	// (to the whole reply where the surface has no stream).
	firstNs int64
}

// add takes the next delivered key. A writer's versioned key counts
// for the time to the first key and is otherwise skipped: the model a
// list is checked against is the static catalogue, and a write probe
// leaves its keys registered between its slices.
func (l *listResult) add(k string, since time.Time) {
	if l.firstNs == 0 {
		l.firstNs = time.Since(since).Nanoseconds()
	}
	if isVersioned(k) {
		return
	}
	if l.count == 0 {
		l.first, l.ordered = k, true
	} else if k <= l.last {
		l.ordered = false
	}
	l.last = k
	l.count++
}

// matches reports whether the result is the list the model expects of o.
func (l *listResult) matches(o *op) bool {
	return l.count == o.count && l.first == o.first && l.last == o.last && (l.count == 0 || l.ordered)
}

// target is the surface a workload drives: the public dlpt.Registry
// for the engine workloads, daemon.Admin against one daemon for
// steward-daemon. The program under test sees only these calls.
type target interface {
	discover(ctx context.Context, name string) (endpoints []string, found bool, physHops int, err error)
	register(ctx context.Context, name string) error
	unregister(ctx context.Context, name string) (bool, error)
	// list runs o (limit10, scan or first) and reduces the result.
	list(ctx context.Context, o *op) (listResult, error)
}

type registryTarget struct{ reg *dlpt.Registry }

func (t registryTarget) discover(ctx context.Context, name string) ([]string, bool, int, error) {
	svc, ok, err := t.reg.Discover(ctx, name)
	return svc.Endpoints, ok, svc.PhysicalHops, err
}

func (t registryTarget) register(ctx context.Context, name string) error {
	return t.reg.Register(ctx, name, endpoint)
}

func (t registryTarget) unregister(ctx context.Context, name string) (bool, error) {
	return t.reg.Unregister(ctx, name, endpoint)
}

func (t registryTarget) list(ctx context.Context, o *op) (listResult, error) {
	var res listResult
	start := time.Now()
	if o.class == opLimit10 {
		ks, err := t.reg.Complete(ctx, o.key, 10)
		for _, k := range ks {
			res.add(k, start)
		}
		return res, err
	}
	seq := t.reg.CompleteSeq(ctx, o.key, 0)
	if o.hi != "" {
		seq = t.reg.RangeSeq(ctx, o.key, o.hi, 0)
	}
	for k, err := range seq {
		if err != nil {
			return res, err
		}
		res.add(k, start)
		if o.class == opFirst && res.count > 0 {
			break // abandoning the iterator cancels the traversal
		}
	}
	return res, nil
}

// adminTarget issues every call as one daemon.Admin round trip (one
// dial each) to addr. The admin surface has no result stream, so a
// "first" op asks for one key and firstNs is the whole reply.
type adminTarget struct{ addr string }

func (t adminTarget) call(ctx context.Context, req *daemon.AdminRequest) (*daemon.AdminResponse, error) {
	return daemon.Admin(ctx, t.addr, req)
}

func (t adminTarget) discover(ctx context.Context, name string) ([]string, bool, int, error) {
	resp, err := t.call(ctx, &daemon.AdminRequest{Op: "discover", Key: name})
	if err != nil {
		return nil, false, 0, err
	}
	return resp.Values, resp.Found, resp.Physical, nil
}

func (t adminTarget) register(ctx context.Context, name string) error {
	_, err := t.call(ctx, &daemon.AdminRequest{Op: "register", Key: name, Value: endpoint})
	return err
}

func (t adminTarget) unregister(ctx context.Context, name string) (bool, error) {
	_, err := t.call(ctx, &daemon.AdminRequest{Op: "unregister", Key: name, Value: endpoint})
	return err == nil, err
}

func (t adminTarget) list(ctx context.Context, o *op) (listResult, error) {
	req := &daemon.AdminRequest{Op: "complete", Prefix: o.key}
	if o.hi != "" {
		req = &daemon.AdminRequest{Op: "range", Lo: o.key, Hi: o.hi}
	}
	switch o.class {
	case opLimit10:
		req.Limit = 10
	case opFirst:
		req.Limit = 1
	}
	var res listResult
	start := time.Now()
	resp, err := t.call(ctx, req)
	if err != nil {
		return res, err
	}
	for _, k := range resp.Keys {
		res.add(k, start)
	}
	return res, nil
}
