// Package lockfix exercises the lockcheck contract: guarded-field
// accesses with and without lock evidence, the *Locked naming
// convention, the held/exclusive directives, closure inheritance, the
// PR 8 stderr-capture race shape, and a guarded field another package
// declares.
package lockfix

import (
	"bytes"
	"sync"

	"lockdep"
)

type counterSet struct {
	mu     sync.Mutex
	hits   int             // guarded by mu
	misses int             // guarded by mu
	seen   map[string]bool // guarded by mu
	label  string          // immutable after construction; unguarded
}

// Inc holds the lock: every guarded access below is fine.
func (c *counterSet) Inc(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[key] {
		c.hits++
	} else {
		c.misses++
	}
	c.seen[key] = true
}

// Snapshot reads guarded state bare: each access is a finding.
func (c *counterSet) Snapshot() (int, int) {
	a := c.hits   // want `field c.hits is guarded by "mu"`
	b := c.misses // want `field c.misses is guarded by "mu"`
	return a, b
}

// Label reads only unguarded state.
func (c *counterSet) Label() string {
	return c.label
}

// resetLocked follows the naming convention: callers hold c.mu.
func (c *counterSet) resetLocked() {
	c.hits = 0
	c.misses = 0
	c.seen = make(map[string]bool)
}

// drain is documented lock-free by directive.
//
// dlptlint:held mu — called only from Inc-side paths with the lock.
func (c *counterSet) drain() int {
	return c.hits + c.misses
}

// newCounterSet builds the value before it escapes.
//
// dlptlint:exclusive — construction; no other goroutine can hold a
// reference yet.
func newCounterSet(label string) *counterSet {
	c := &counterSet{label: label, seen: make(map[string]bool)}
	c.hits = 0
	return c
}

// closureInherit shows a literal created under the lock inheriting
// the enclosing function's evidence.
func (c *counterSet) closureInherit() func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() int { return c.hits }
}

// wrongBase locks a different instance: no evidence for other.
func (c *counterSet) wrongBase(other *counterSet) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return other.hits // want `field other.hits is guarded by "mu"`
}

// suppressed shows the escape hatch silencing a finding.
func (c *counterSet) suppressed() int {
	//dlptlint:ignore lockcheck demonstration of the suppression directive
	return c.hits
}

// pipeBuffer is the PR 8 stderr-capture race shape: an exec pipe
// copier goroutine writes the buffer while the test reads it. The
// unguarded read below is exactly the bug that PR shipped a fix for.
type pipeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer // guarded by mu (written by the pipe copier goroutine)
}

func (b *pipeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *pipeBuffer) String() string {
	return b.buf.String() // want `field b.buf is guarded by "mu"`
}

func (b *pipeBuffer) StringFixed() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// shell embeds a locked core another package declares; the guard on
// the core's exported field binds here too, and the shell's own field
// can name the promoted mutex as its guard.
type shell struct {
	lockdep.Core
	extra int // guarded by Mu
}

func (s *shell) good(k string) int {
	s.Mu.RLock()
	defer s.Mu.RUnlock()
	return s.Items[k] + s.extra
}

func (s *shell) bad(k string) int {
	_ = s.Label
	return s.Items[k] + // want `field s.Items is guarded by "Mu"`
		s.extra // want `field s.extra is guarded by "Mu"`
}
