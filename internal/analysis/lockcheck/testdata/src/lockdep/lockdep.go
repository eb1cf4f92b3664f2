// Package lockdep declares a guarded struct for another fixture to
// embed: the annotation must follow the exported field across the
// package boundary.
package lockdep

import "sync"

// Core is a locked core meant to be embedded.
type Core struct {
	Mu    sync.RWMutex
	Items map[string]int // guarded by Mu
	Label string         // immutable after construction; unguarded
}
