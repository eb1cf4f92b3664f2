// Fault injection as a Net: a *Faults dials through the Net it wraps,
// and its rules see every frame written on a connection it dialed —
// routed hops and their replies, REPLICA, QUERY, STREAM_ACK, CANCEL and
// the control plane. Replies on accepted connections are not faulted.
// A frameConn writes one frame per Write (a STREAM with its STREAM_END
// behind it counts as the STREAM), so a write's first byte names the
// frame. Rules are countdowns and jitter draws from a seeded rng, so a
// seed replays the same fault sequence.

package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedDrop is the write error of a dropped frame that would
// have been answered: nothing reached the wire, the connection stays
// up. A dropped one-way frame (REQUEST, QROUTE, RESPONSE) vanishes
// instead, its write reporting success.
var ErrInjectedDrop = fmt.Errorf("transport: frame dropped by fault injection")

// ErrPartitioned is the transport error for dials and writes toward an
// address the fault plan has partitioned away.
var ErrPartitioned = fmt.Errorf("transport: address partitioned by fault injection")

// FaultRule matches outbound frames and describes what to do with
// them. Zero match fields are wildcards: Type 0 matches every frame
// type, empty Addr every destination. Count bounds how many frames the
// rule affects (<= 0 means unlimited); the rule expires after its count
// is consumed.
type FaultRule struct {
	Type  byte   // frame type to match; 0 = any
	Addr  string // destination address to match; "" = any
	Count int    // matches before the rule expires; <= 0 = unlimited

	Drop   bool          // lose the frame (see ErrInjectedDrop)
	Dup    bool          // write the frame twice (receiver sees it twice)
	Delay  time.Duration // write the frame this much later
	Jitter float64       // relative spread on Delay (0.2 = ±20%), seeded
}

// Faults is a deterministic fault plan over the connections it dials.
// Safe for concurrent use.
type Faults struct {
	Net // the net under the faults: TCP from NewFaults

	mu          sync.Mutex
	rng         *rand.Rand
	partitioned map[string]bool
	rules       []*FaultRule
}

// NewFaults builds an empty fault plan over TCP whose delay jitter
// draws from seed.
func NewFaults(seed int64) *Faults {
	return &Faults{
		Net:         TCP,
		rng:         rand.New(rand.NewSource(seed)),
		partitioned: make(map[string]bool),
	}
}

// Inject installs one rule. Rules are matched in insertion order; the
// first match decides the frame's fate.
func (f *Faults) Inject(rule FaultRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &rule)
}

// Partition cuts every dial and outbound frame toward addrs until
// Heal. (Each side of a link owns its own Faults, so a symmetric
// partition is two Partition calls, one per cluster.)
func (f *Faults) Partition(addrs ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range addrs {
		f.partitioned[a] = true
	}
}

// Heal lifts the partition toward addrs.
func (f *Faults) Heal(addrs ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range addrs {
		delete(f.partitioned, a)
	}
}

// Clear removes every rule and partition.
func (f *Faults) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
	f.partitioned = make(map[string]bool)
}

// DialContext refuses a partitioned address, else wraps a dial of Net.
func (f *Faults) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	f.mu.Lock()
	cut := f.partitioned[addr]
	f.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, addr)
	}
	conn, err := f.Net.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, f: f, addr: addr, closed: make(chan struct{})}, nil
}

// faultAction is one matched rule's decision for a frame.
type faultAction struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// onSend decides the fate of one outbound frame. It consumes rule
// counts, computes the (jittered) delay, and reports partition or drop
// as an error.
func (f *Faults) onSend(typ byte, addr string) (faultAction, error) {
	var act faultAction
	f.mu.Lock()
	if f.partitioned[addr] {
		f.mu.Unlock()
		return act, fmt.Errorf("%w: %s", ErrPartitioned, addr)
	}
	var hit *FaultRule
	for i, r := range f.rules {
		if (r.Type == 0 || r.Type == typ) && (r.Addr == "" || r.Addr == addr) {
			hit = r
			if r.Count > 0 {
				r.Count--
				if r.Count == 0 {
					f.rules = append(f.rules[:i:i], f.rules[i+1:]...)
				}
			}
			break
		}
	}
	if hit != nil {
		act.drop, act.dup, act.delay = hit.Drop, hit.Dup, hit.Delay
		if act.delay > 0 && hit.Jitter > 0 {
			spread := 1 + hit.Jitter*(2*f.rng.Float64()-1)
			act.delay = time.Duration(float64(act.delay) * spread)
		}
	}
	f.mu.Unlock()
	if act.drop {
		return act, fmt.Errorf("%w: frame %d to %s", ErrInjectedDrop, typ, addr)
	}
	return act, nil
}

// faultConn is a connection a Faults dialed; each Write is one frame.
type faultConn struct {
	net.Conn
	f      *Faults
	addr   string
	once   sync.Once
	closed chan struct{} // closed by Close: delayed frames are abandoned
}

func (c *faultConn) Write(b []byte) (int, error) {
	n, typ := len(b), b[0]&^frameTraceFlag
	act, err := c.f.onSend(typ, c.addr)
	if err != nil {
		if act.drop && (typ == frameRequest || typ == frameQRoute || typ == frameResponse) {
			return n, nil // lost in flight: nobody waits on this connection for it
		}
		return 0, err
	}
	if act.dup {
		b = bytes.Repeat(b, 2) // the receiver reads the frame twice
	}
	if act.delay > 0 {
		// Written later by a goroutine of its own: sleeping here would
		// hold the frameConn's write lock and stall the whole connection.
		late := bytes.Clone(b)
		go func() {
			select {
			case <-time.After(act.delay):
				_, _ = c.Conn.Write(late) // failing, it is a lost frame: the reader sees the dead conn
			case <-c.closed:
			}
		}()
	} else if _, err := c.Conn.Write(b); err != nil {
		return 0, err
	}
	return n, nil
}

func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
