// Package live is the engine.Concurrent adapter over the goroutine-
// per-peer cluster (internal/live): the default backend of the public
// API. Writes serialize over the shared overlay runtime, discoveries
// travel concurrently through the peer goroutines, and cancelling a
// discovery context withdraws the caller's pending entry and returns at
// once. The package owns the constructor only.
package live

import (
	"dlpt/engine"
	ilive "dlpt/internal/live"
)

// Engine is a running live cluster behind the engine contract.
type Engine = engine.Concurrent[*ilive.Cluster]

// New starts a concurrent overlay with one peer goroutine per
// capacity entry.
func New(cfg engine.Config) (*Engine, error) {
	alpha, opts, err := engine.RuntimeOptions(cfg)
	if err != nil {
		return nil, err
	}
	c, err := ilive.StartOpts(alpha, cfg.Capacities, cfg.Seed, opts)
	if err != nil {
		return nil, err
	}
	return engine.NewConcurrent("live", alpha, c, &c.Runtime), nil
}

// Factory adapts New to the engine.Factory signature.
func Factory(cfg engine.Config) (engine.Engine, error) { return New(cfg) }

// Compile-time conformance check.
var _ engine.Engine = (*Engine)(nil)
