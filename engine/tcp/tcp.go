// Package tcp is the engine.Concurrent adapter over the socket cluster
// (internal/transport): every peer owns a loopback TCP listener and
// discoveries hop peer-to-peer as length-prefixed binary frames
// multiplexed over persistent pooled connections — forwarded one way,
// answered straight to the caller. Cancelling a discovery context
// withdraws the caller's pending entry and returns at once; a query
// stream that ends early, closed or cancelled, sends a CANCEL frame and
// the shared connection survives. The package owns the constructor
// only.
package tcp

import (
	"dlpt/engine"
	itransport "dlpt/internal/transport"
)

// Engine is a running TCP cluster behind the engine contract.
type Engine = engine.Concurrent[*itransport.Cluster]

// New starts a TCP-backed overlay with one listener per capacity
// entry, bound to cfg.Bind (127.0.0.1 ephemeral ports by default).
func New(cfg engine.Config) (*Engine, error) {
	alpha, opts, err := engine.RuntimeOptions(cfg)
	if err != nil {
		return nil, err
	}
	c, err := itransport.StartOpts(alpha, cfg.Capacities, cfg.Seed, itransport.Options{
		Options:       opts,
		Bind:          cfg.Bind,
		AdvertiseHost: cfg.AdvertiseHost,
	})
	if err != nil {
		return nil, err
	}
	return engine.NewConcurrent("tcp", alpha, c, &c.Runtime), nil
}

// Factory adapts New to the engine.Factory signature.
func Factory(cfg engine.Config) (engine.Engine, error) { return New(cfg) }

// Compile-time conformance check.
var _ engine.Engine = (*Engine)(nil)
