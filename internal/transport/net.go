// The socket seam: every listener and dial of the module comes from a
// Net, and TCP is the only code that opens real sockets.

package transport

import (
	"context"
	"net"
)

// Net is where sockets come from; addresses are "host:port".
type Net interface {
	Listen(addr string) (net.Listener, error)
	DialContext(ctx context.Context, addr string) (net.Conn, error)
}

// TCP is the Net of real TCP sockets, the default wherever a Net is
// optional.
var TCP Net = tcpNet{}

type tcpNet struct{}

func (tcpNet) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

func (tcpNet) DialContext(ctx context.Context, addr string) (net.Conn, error) {
	return new(net.Dialer).DialContext(ctx, "tcp", addr)
}
