// Package memnet is an in-process network for tests, like leakcheck
// imported by no non-test file: listeners and dials by "host:port" over
// net.Pipe, no socket opened. It has transport.Net's method set, so a
// cluster or a dlptd overlay runs on it — and, every wait on it being a
// channel operation, inside a testing/synctest bubble.
package memnet

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
)

// Net is one in-process network; its addresses are its own.
type Net struct {
	mu        sync.Mutex
	listeners map[string]*listener
	lastPort  int
}

// New returns an empty network.
func New() *Net { return &Net{listeners: make(map[string]*listener)} }

// Listen binds addr; port 0 draws a free port.
func (n *Net) Listen(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if port == "0" {
		for n.lastPort++; n.listeners[net.JoinHostPort(host, strconv.Itoa(n.lastPort))] != nil; n.lastPort++ {
		}
		port = strconv.Itoa(n.lastPort)
	}
	addr = net.JoinHostPort(host, port)
	if n.listeners[addr] != nil {
		return nil, fmt.Errorf("memnet: listen %s: address already in use", addr)
	}
	l := &listener{n: n, addr: memAddr(addr), conns: make(chan net.Conn), done: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// DialContext connects to the listener at addr, refused when there is
// none or it closes before accepting.
func (n *Net) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	if l != nil {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return client, nil
		case <-l.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("memnet: dial %s: connection refused", addr)
}

type listener struct {
	n     *Net
	addr  memAddr
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close unblocks Accept and frees the address.
func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.n.mu.Lock()
		delete(l.n.listeners, string(l.addr)) // only this listener holds it: Listen refuses a bound address
		l.n.mu.Unlock()
	})
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }
