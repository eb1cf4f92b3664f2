// The admin wire contract, both ends: STATUS and ADMIN frames carry
// JSON both ways, so `dlptd status`/`dlptd op`, the smoke tests and the
// benchmark can drive a running daemon with no cluster of their own.
//
// The client end keeps its connections: Admin and GetStatus share one
// process-wide adminClient, so a call is one round trip on a kept
// connection, not a dial. A kept connection that turns out dead before
// any reply byte (its daemon restarted on the same address) is retried
// once on a fresh dial. That can deliver a request twice, which is safe
// because every admin op is idempotent: register and unregister of a
// (key, value) pair are set operations, the rest only read. A
// connection whose call failed, timed out or was cancelled is closed,
// never kept, so a late reply has nowhere to arrive. How many
// connections stay idle is capped by constants, oldest closed first;
// the client starts no goroutine and no timer.

package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/peering"
	"dlpt/internal/transport"
)

// Status is a daemon's externally visible state.
type Status struct {
	Role        string               `json:"role"`
	ID          string               `json:"id"`
	Addr        string               `json:"addr"`
	StewardAddr string               `json:"steward_addr"`
	Epoch       uint64               `json:"epoch"`
	Seq         uint64               `json:"seq"`
	Members     []MemberInfo         `json:"members,omitempty"`
	Peers       int                  `json:"peers"`
	Nodes       int                  `json:"nodes"`
	Links       []peering.LinkStatus `json:"links,omitempty"`
}

// MemberInfo is one row of the member table.
type MemberInfo struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	Capacity int    `json:"capacity"`
}

// AdminRequest is one admin operation: register, unregister,
// discover, complete, range, validate or obs (a snapshot of the
// daemon's metric series, the same counters /metrics exports).
type AdminRequest struct {
	Op     string `json:"op"`
	Key    string `json:"key,omitempty"`
	Value  string `json:"value,omitempty"`
	Prefix string `json:"prefix,omitempty"`
	Lo     string `json:"lo,omitempty"`
	Hi     string `json:"hi,omitempty"`
	Limit  int    `json:"limit,omitempty"`
}

// AdminResponse carries an admin operation's outcome; Err is the
// in-band failure.
type AdminResponse struct {
	Err      string   `json:"err,omitempty"`
	Found    bool     `json:"found,omitempty"`
	Values   []string `json:"values,omitempty"`
	Keys     []string `json:"keys,omitempty"`
	Logical  int      `json:"logical_hops"`
	Physical int      `json:"physical_hops"`
	Visited  int      `json:"nodes_visited"`
	Dropped  bool     `json:"dropped,omitempty"`
	// Obs is the metric snapshot answered to the "obs" op, keyed
	// `name{labels}` exactly as the Prometheus exposition names series.
	Obs obs.Snapshot `json:"obs,omitempty"`
}

// Idle connections the admin client keeps, per address and in all.
// Constants, not options: a sequential caller needs one per daemon.
const (
	adminIdlePerAddr = 4
	adminIdleTotal   = 16
)

// adminClient is the keep-alive policy over transport.ControlConn.
type adminClient struct {
	mu    sync.Mutex
	idle  []idleConn // guarded by mu; oldest first
	dials atomic.Int64
}

type idleConn struct {
	addr string
	cc   *transport.ControlConn
}

// adminConns is the process-wide client behind Admin and GetStatus.
var adminConns adminClient

// call sends one frame to addr over an idle connection, or a fresh one,
// and keeps the connection if the call succeeded.
func (cl *adminClient) call(ctx context.Context, addr string, typ byte, payload []byte) (byte, []byte, error) {
	cc := cl.take(addr)
	for reused := cc != nil; ; reused = false {
		if !reused {
			var err error
			if cc, err = transport.DialControl(ctx, addr); err != nil {
				return 0, nil, err
			}
			cl.dials.Add(1)
		}
		rtyp, p, err := cc.Call(ctx, typ, payload)
		if err == nil {
			cl.put(addr, cc)
			return rtyp, p, nil
		}
		_ = cc.Close()
		if !reused || !errors.Is(err, transport.ErrConnLost) {
			return 0, nil, err
		}
		// A kept connection that was dead already: once more, dialling.
	}
}

// take removes and returns the most recently used idle connection to
// addr, nil when there is none.
func (cl *adminClient) take(addr string) *transport.ControlConn {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for i := len(cl.idle) - 1; i >= 0; i-- {
		if ic := cl.idle[i]; ic.addr == addr {
			cl.idle = slices.Delete(cl.idle, i, i+1)
			return ic.cc
		}
	}
	return nil
}

// put keeps cc for the next call, closing the oldest idle connection
// to the same address, or of all, when a cap is reached.
func (cl *adminClient) put(addr string, cc *transport.ControlConn) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	same, oldest := 0, 0
	for i := len(cl.idle) - 1; i >= 0; i-- {
		if cl.idle[i].addr == addr {
			same, oldest = same+1, i
		}
	}
	if same < adminIdlePerAddr {
		oldest = 0 // under the address cap only the total can evict
	}
	if same >= adminIdlePerAddr || len(cl.idle) >= adminIdleTotal {
		_ = cl.idle[oldest].cc.Close()
		cl.idle = slices.Delete(cl.idle, oldest, oldest+1)
	}
	cl.idle = append(cl.idle, idleConn{addr, cc})
}

// GetStatus queries a running daemon's status in one round trip.
func GetStatus(ctx context.Context, addr string) (*Status, error) {
	rtyp, p, err := adminConns.call(ctx, addr, transport.FrameStatus, nil)
	if err != nil {
		return nil, err
	}
	if rtyp != transport.FrameStatusResp {
		return nil, replyError(rtyp, p)
	}
	var st Status
	if err := json.Unmarshal(p, &st); err != nil {
		return nil, fmt.Errorf("daemon: status reply: %w", err)
	}
	return &st, nil
}

// Admin executes one admin operation on a running daemon in one round
// trip. A non-empty AdminResponse.Err is returned as the error.
func Admin(ctx context.Context, addr string, req *AdminRequest) (*AdminResponse, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rtyp, p, err := adminConns.call(ctx, addr, transport.FrameAdmin, b)
	if err != nil {
		return nil, err
	}
	if rtyp != transport.FrameAdminResp {
		return nil, replyError(rtyp, p)
	}
	var resp AdminResponse
	if err := json.Unmarshal(p, &resp); err != nil {
		return nil, fmt.Errorf("daemon: admin reply: %w", err)
	}
	if resp.Err != "" {
		return &resp, fmt.Errorf("%s", resp.Err)
	}
	return &resp, nil
}

// replyError surfaces the in-band error of an unexpected reply frame
// (typically a bare ack explaining the refusal).
func replyError(rtyp byte, p []byte) error {
	if rtyp == transport.FrameAck {
		var ack transport.Ack
		if err := transport.Unmarshal(p, &ack); err == nil && ack.Err != "" {
			return fmt.Errorf("%s", ack.Err)
		}
	}
	return fmt.Errorf("daemon: unexpected reply frame %d", rtyp)
}

// Status captures the daemon's externally visible state (the
// handleStatus reply and the local view share this path).
func (d *Daemon) Status() *Status {
	d.mu.Lock()
	role := "member"
	if d.steward {
		role = "steward"
	}
	st := &Status{
		Role:        role,
		ID:          string(d.selfID),
		Addr:        d.selfAddr,
		StewardAddr: d.stewardAddr,
		Epoch:       d.epoch,
		Seq:         d.seq,
	}
	for _, m := range d.memberListLocked() {
		st.Members = append(st.Members, MemberInfo{ID: string(m.ID), Addr: m.Addr, Capacity: m.Capacity})
	}
	d.mu.Unlock()
	st.Peers = d.cluster.NumPeers()
	st.Nodes = d.cluster.NumNodes()
	st.Links = d.maint.Snapshot()
	return st
}

func (d *Daemon) handleStatus() (byte, []byte) {
	b, err := json.Marshal(d.Status())
	if err != nil {
		return ack("daemon: status: " + err.Error())
	}
	return transport.FrameStatusResp, b
}

func (d *Daemon) handleAdmin(payload []byte) (byte, []byte) {
	var req AdminRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		b, _ := json.Marshal(&AdminResponse{Err: "daemon: malformed admin request: " + err.Error()})
		return transport.FrameAdminResp, b
	}
	resp := d.admin(&req)
	b, err := json.Marshal(resp)
	if err != nil {
		b, _ = json.Marshal(&AdminResponse{Err: "daemon: admin: " + err.Error()})
	}
	return transport.FrameAdminResp, b
}

// adminQueryTimeout bounds the routed ops (discover, complete, range);
// the others never wait on another daemon through a context.
const adminQueryTimeout = 30 * time.Second

// admin executes one admin operation against the overlay. Catalogue
// mutations route through the serialized apply stream; reads run
// directly on the local mirror (discoveries and streamed queries
// still hop to the owning daemons over the wire).
func (d *Daemon) admin(req *AdminRequest) *AdminResponse {
	resp := &AdminResponse{}
	switch req.Op {
	case "register":
		if err := d.mutate(transport.OpRegister, req.Key, req.Value); err != nil {
			resp.Err = err.Error()
		}
	case "unregister":
		if err := d.mutate(transport.OpUnregister, req.Key, req.Value); err != nil {
			resp.Err = err.Error()
		}
	case "discover":
		ctx, cancel := context.WithTimeout(d.ctx, adminQueryTimeout)
		defer cancel()
		res, err := d.cluster.DiscoverContext(ctx, keys.Key(req.Key))
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Found = res.Found
		resp.Values = res.Values
		resp.Logical = res.LogicalHops
		resp.Physical = res.PhysicalHops
		resp.Dropped = res.Dropped
	case "complete", "range":
		spec := core.QuerySpec{Limit: req.Limit}
		if req.Op == "range" {
			spec.Range = true
			spec.Lo, spec.Hi = keys.Key(req.Lo), keys.Key(req.Hi)
		} else {
			spec.Prefix = keys.Key(req.Prefix)
		}
		ctx, cancel := context.WithTimeout(d.ctx, adminQueryTimeout)
		defer cancel()
		s, err := d.cluster.StreamQuery(ctx, spec)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		for k, ok := s.Next(); ok; k, ok = s.Next() {
			resp.Keys = append(resp.Keys, string(k))
		}
		if err := s.Err(); err != nil {
			resp.Err = err.Error()
		}
		st := s.Stats()
		resp.Logical = st.LogicalHops
		resp.Physical = st.PhysicalHops
		resp.Visited = st.NodesVisited
		s.Close()
	case "validate":
		if err := d.cluster.Validate(); err != nil {
			resp.Err = err.Error()
		}
	case "obs":
		// The same counters the /metrics endpoint exports, over the
		// admin wire path (dlptd status -obs) — no HTTP listener needed.
		resp.Obs = d.obsReg.Snapshot()
	default:
		resp.Err = fmt.Sprintf("daemon: unknown admin op %q", req.Op)
	}
	return resp
}
