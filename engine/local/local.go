// Package local is the engine.Concurrent adapter over a link-less
// cluster on the shared overlay runtime (internal/overlay): every peer
// lives in the one locked core.Network, so the Link has nothing to
// bring up, retire or re-key and a replica batch is installed where it
// is planned. No goroutines (not even the runtime's sweeper: nothing is
// ever pending), no sockets, fully deterministic given a seed. What is
// local's own is the data path: a discovery is one call into the
// sequential core (core.Network.DiscoverRandom) under the write lock,
// shadowing the runtime's routed DiscoverContext — the reference the
// differential tests hold the concurrent backends' hop-by-hop driver
// against. A subtree query is the runtime's StreamQuery, as on live;
// its entry draws come off the generator registrations and discoveries
// consume, so one seed replays one sequence.
package local

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dlpt/engine"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

// Engine is a sequential overlay behind the engine contract.
type Engine = engine.Concurrent[*cluster]

// cluster is the shared runtime plus the sequential data path. It is
// its own overlay.Link.
type cluster struct{ overlay.Runtime }

// New starts a local overlay with one peer per capacity entry — or,
// with cfg.Restore, rebuilds one from cfg.Persist's newest snapshot
// and journal.
func New(cfg engine.Config) (*Engine, error) {
	if len(cfg.Capacities) == 0 && !cfg.Restore {
		return nil, fmt.Errorf("local: no peers")
	}
	alpha, opts, err := engine.RuntimeOptions(cfg)
	if err != nil {
		return nil, err
	}
	c := new(cluster)
	c.Init(alpha, cfg.Seed, opts)
	if err := c.Attach(c, cfg.Capacities); err != nil {
		return nil, err
	}
	return engine.NewConcurrent("local", alpha, c, &c.Runtime), nil
}

// Wrap adapts an already-built network (e.g. one a test drives
// directly) to the engine contract. The caller keeps ownership of the
// network's peer lifecycle.
func Wrap(net *core.Network, seed int64) *Engine {
	c := new(cluster)
	c.Adopt(net, seed, overlay.Options{Obs: net.Obs, Trace: net.Tracer})
	_ = c.Attach(c, nil) // no joins, no restore: nothing to fail
	return engine.NewConcurrent("local", net.Alphabet, c, &c.Runtime)
}

// Factory adapts New to the engine.Factory signature.
func Factory(cfg engine.Config) (engine.Engine, error) { return New(cfg) }

// The in-process link: a peer has no endpoint beyond its entry in the
// shared network.
func (c *cluster) PeerUp(keys.Key) error { return nil }
func (c *cluster) PeerDown(keys.Key)     {}
func (c *cluster) Rename(_, _ keys.Key)  {}

// Ship installs the batch directly, which makes the runtime's tick
// plan → install → compact: core.Network.Replicate.
func (c *cluster) Ship(_ trace.Context, b core.ReplicaBatch) (int, error) {
	return c.InstallReplicas(b), nil
}

// Nothing is routed hop by hop here (see DiscoverContext), so no hop
// is ever sent or answered.
func (c *cluster) Send(context.Context, keys.Key, overlay.Hop) error { return errNoRoute }
func (c *cluster) Reply(overlay.Hop, overlay.Reply) error            { return errNoRoute }

var errNoRoute = errors.New("local: no routed path")

// Stop marks the cluster stopped. It is idempotent.
func (c *cluster) Stop() { c.Halt() }

// DiscoverContext routes a discovery entering at a random node through
// the sequential core. The write lock orders the draws from Rng and
// the core's unsynchronized visit accounting.
func (c *cluster) DiscoverContext(ctx context.Context, key keys.Key) (overlay.Result, error) {
	if c.Stopped() {
		return overlay.Result{}, overlay.ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return overlay.Result{}, err
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	var began time.Time
	if c.Met != nil || c.Rec.Enabled() {
		began = time.Now()
	}
	root := c.Rec.StartRoot(obs.PhaseDiscover, "")
	root.SetAttr("key", string(key))
	res := c.Net.DiscoverRandom(key, c.Gate, c.Rng)
	root.End()
	if m := c.Met; m != nil {
		d := time.Since(began)
		m.DiscoverLatency.Observe(d.Seconds())
		m.RecordPhase(obs.PhaseDiscover, res.LogicalHops, d)
		if res.Dropped {
			m.Drops.Inc()
		}
	}
	out := overlay.Result{
		Key:          key,
		Found:        res.Satisfied,
		LogicalHops:  res.LogicalHops,
		PhysicalHops: res.PhysicalHops,
		Dropped:      res.Dropped,
	}
	if res.Satisfied && !res.Dropped {
		out.Values = res.Node.SortedValues()
	}
	return out, nil
}

// Compile-time conformance check.
var _ engine.Engine = (*Engine)(nil)
