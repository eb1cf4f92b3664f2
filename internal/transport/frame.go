// The wire protocol: length-prefixed binary frames multiplexed over
// one long-lived TCP connection per peer pair. Every frame carries an
// id, so many conversations share a socket.
//
// Frame layout (header is fixed 13 bytes, integers big-endian):
//
//	type(1) | id(8) | payloadLen(4) | payload
//
// Frames come in three kinds (the constants below document each type):
//
//   - Routed frames, REQUEST and QROUTE, travel one way. The caller
//     stamps the frame with a pending id and the address of one of its
//     own listeners and sends it to the entry host; every hop advances
//     the walk and forwards the frame to the next host without waiting
//     for anything. The peer where routing ends writes one RESPONSE to
//     the caller's address under the caller's id. Nothing acknowledges
//     a forward: a frame or a reply lost in flight is the caller's to
//     notice and re-issue.
//   - Round trips: REPLICA and the control plane are answered on the
//     connection they arrived on, under the id the sender chose.
//   - Streams: QUERY opens one, STREAM/STREAM_END answer on the same
//     connection, STREAM_ACK returns credit and CANCEL abandons the
//     stream while the connection survives.
//
// A STREAM payload is the walk's running counters, a key count and the
// keys front-coded against their predecessor in the frame (uvarints):
//
//	logical | physical | visited | n | n × (shared | suffixLen | suffix)
//
// shared is the length of the prefix a key has in common with the key
// before it. A walk emits keys in ascending order, so a key costs its
// new suffix and two small varints; any order round-trips exactly.
//
// Every other payload — the hop, its reply, the QUERY, the REPLICA
// batch, the STREAM_END and the control messages — is a Message of the
// one codec in wire.go: one code method per payload, for both
// directions. Only the STREAM batch hides a format of its own (the
// front coding) and keeps its encoder, which codes its leading fields
// on the same wire. Encode buffers are reused through a sync.Pool; each
// connection's single reader goroutine owns a growable decode buffer.

package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/obs"
	"dlpt/internal/overlay"
	"dlpt/internal/trace"
)

const (
	// frameRequest is a discovery in flight (payload: an overlay.Hop):
	// one way, hop to hop. frameResponse ends it at the originator
	// (payload: an overlay.Reply, id: the hop's Origin); it also
	// acknowledges a REPLICA, LEAVE, APPLY or RESYNC on the connection
	// that carried it. frameCancel abandons the QUERY stream with that
	// id; no payload.
	frameRequest  = 1
	frameResponse = 2
	frameCancel   = 3
	// frameQuery starts a streaming subtree query (payload: queryReq);
	// the server answers with zero or more STREAM frames carrying
	// partial result batches and exactly one STREAM_END frame carrying
	// the traversal totals. The consumer acknowledges each batch it
	// pulls with a STREAM_ACK (no payload); the server's credit is one
	// small frame and doubles with every ACK (see streamWindowKeys), so
	// a consumer that stops reading halts the walk instead of letting
	// it fill socket buffers. A CANCEL frame for the same id aborts
	// the traversal mid-stream; the connection survives.
	frameQuery     = 4
	frameStream    = 5
	frameStreamEnd = 6
	frameStreamAck = 7
	// frameReplica ships one successor replica batch of a Replicate
	// tick (payload: a replicaBatch — source peer, target peer and
	// each snapshot's key, values and loads). The receiver installs
	// the batch under its topology write lock and acknowledges with a
	// RESPONSE frame whose Logical field carries the installed count.
	frameReplica = 8
	// frameQRoute is the climb/descend route of a subtree query
	// (payload: an overlay.Hop). It is forwarded one way between listeners
	// exactly like a discovery REQUEST until the covering node is
	// resolved; that peer writes a RESPONSE with the anchor and the
	// route's accumulated counters straight to the querying client,
	// which opens the STREAM walk at the anchor's host. (10 was the
	// chained protocol's QROUTE_RESP.)
	frameQRoute = 9
	// The control plane: JOIN negotiates a daemon into the overlay
	// (reply: HELLO with the assigned ring id, the member table and a
	// full state snapshot — or a rejection), LEAVE announces a graceful
	// departure (reply: RESPONSE ack), APPLY replicates one serialized
	// overlay mutation to a member's mirror (reply: RESPONSE ack), and
	// STATUS/ADMIN carry the admin plane's opaque JSON. The transport
	// does not interpret these payloads beyond framing: they dispatch
	// to the Options.Control handler, and internal/daemon owns the
	// protocol (see handshake.go for the payloads).
	FrameJoin       = 11
	FrameHello      = 12
	FrameLeave      = 13
	FrameApply      = 14
	FrameStatus     = 15
	FrameStatusResp = 16
	FrameAdmin      = 17
	FrameAdminResp  = 18
	// The failover control plane: ELECT asks a surviving member to
	// vote for the sender's stewardship under a proposed epoch,
	// EPOCH_OPEN is the winning candidate's barrier (members adopt the
	// new epoch and report their last applied sequence so gaps can be
	// replayed), RESYNC ships a full mirror snapshot to a member too
	// divergent to replay (reply: RESPONSE ack), and FETCH pulls a
	// tail of the apply log from a member that is ahead of the new
	// steward. Like the rest of the control plane, the payloads belong
	// to internal/daemon (see handshake.go).
	FrameElect         = 19
	FrameElectResp     = 20
	FrameEpochOpen     = 21
	FrameEpochOpenResp = 22
	FrameResync        = 23
	FrameFetch         = 24
	FrameFetchResp     = 25
	// FrameAck is the RESPONSE that acknowledges a LEAVE, APPLY or
	// RESYNC: its payload is an Ack.
	FrameAck = frameResponse
)

// frameHeaderSize is type(1) + id(8) + payloadLen(4).
const frameHeaderSize = 13

// frameTraceFlag, set on the type byte, extends the frame with a
// 16-byte trace context (trace id + parent span id, big-endian)
// prefixed to the payload. The extension counts into payloadLen, so a
// receiver that does not understand the flagged type still skips the
// frame correctly — and frames without the flag decode exactly as
// before the extension existed, which keeps untraced peers
// wire-compatible in both directions.
const (
	frameTraceFlag = 0x80
	frameTraceSize = 16
)

// maxFramePayload bounds a decoded payload length so a corrupt or
// hostile length prefix cannot force an arbitrary allocation.
const maxFramePayload = 1 << 24

var errFrameTooLarge = errors.New("transport: frame payload exceeds limit")

// framePool recycles encode buffers: one frame is built contiguously
// (header + payload) and written with a single conn.Write.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// frameConn frames a net.Conn. Writes are serialized by wmu (response
// writers race from per-request goroutines); reads belong to exactly
// one reader goroutine, which owns hdr and rbuf.
type frameConn struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	hdr  [frameHeaderSize]byte
	rbuf []byte
	// met, when set, accounts frame bytes in/out (and REPLICA payload
	// bytes) into the wire counters. Nil-safe.
	met *obs.Metrics
}

func newFrameConn(conn net.Conn) *frameConn {
	return &frameConn{conn: conn, br: bufio.NewReaderSize(conn, 4096)}
}

func (fc *frameConn) Close() error { return fc.conn.Close() }

// readFrame returns the next frame, with the trace context decoded
// off the payload prefix when the type byte carries frameTraceFlag
// (zero Context otherwise — an untraced peer's frame). The payload
// slice aliases the connection's reader buffer and is valid only
// until the next call.
func (fc *frameConn) readFrame() (typ byte, id uint64, tc trace.Context, payload []byte, err error) {
	hdr := &fc.hdr
	if _, err = io.ReadFull(fc.br, hdr[:]); err != nil {
		return 0, 0, tc, nil, err
	}
	typ = hdr[0]
	id = binary.BigEndian.Uint64(hdr[1:9])
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > maxFramePayload {
		return 0, 0, tc, nil, errFrameTooLarge
	}
	if cap(fc.rbuf) < int(n) {
		fc.rbuf = make([]byte, n)
	}
	payload = fc.rbuf[:n]
	if _, err = io.ReadFull(fc.br, payload); err != nil {
		return 0, 0, tc, nil, err
	}
	if fc.met != nil {
		fc.met.WireBytesIn.Add(float64(frameHeaderSize + len(payload)))
	}
	if typ&frameTraceFlag != 0 {
		typ &^= frameTraceFlag
		if len(payload) < frameTraceSize {
			return 0, 0, tc, nil, errors.New("transport: truncated trace context")
		}
		tc.Trace = binary.BigEndian.Uint64(payload[0:8])
		tc.Span = binary.BigEndian.Uint64(payload[8:16])
		payload = payload[frameTraceSize:]
	}
	return typ, id, tc, payload, nil
}

// beginFrame starts a frame in a pooled buffer; finishFrame patches
// the payload length in and writes the whole frame in one call.
func beginFrame(buf []byte, typ byte, id uint64) []byte {
	return appendFrameHeader(buf[:0], typ, id)
}

// appendFrameHeader starts a frame behind whatever buf already holds,
// so several frames can leave in one write (see writeStream).
func appendFrameHeader(buf []byte, typ byte, id uint64) []byte {
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint64(buf, id)
	return append(buf, 0, 0, 0, 0) // payload length placeholder
}

// beginTracedFrame is beginFrame plus the trace-context extension: a
// valid context sets frameTraceFlag on the type byte and prefixes the
// payload with the 16-byte context; an invalid one degrades to a
// plain frame, byte-identical to the pre-extension wire format.
func beginTracedFrame(buf []byte, typ byte, id uint64, tc trace.Context) []byte {
	if !tc.Valid() {
		return beginFrame(buf, typ, id)
	}
	buf = beginFrame(buf, typ|frameTraceFlag, id)
	buf = binary.BigEndian.AppendUint64(buf, tc.Trace)
	return binary.BigEndian.AppendUint64(buf, tc.Span)
}

func (fc *frameConn) finishFrame(buf []byte) error {
	if err := sealFrame(buf, 0); err != nil {
		return err
	}
	return fc.write(buf)
}

// sealFrame patches the payload length into the frame that starts at
// buf[start] and runs to the end of buf.
func sealFrame(buf []byte, start int) error {
	n := len(buf) - start - frameHeaderSize
	if n > maxFramePayload {
		// Never put an oversized frame on the wire: the receiver
		// would kill the shared connection (and every multiplexed
		// request on it). Nothing was written; the connection stays
		// consistent and the caller degrades per frame type.
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[start+9:start+13], uint32(n))
	return nil
}

// write puts sealed frames on the wire in one conn.Write.
func (fc *frameConn) write(buf []byte) error {
	fc.wmu.Lock()
	_, err := fc.conn.Write(buf)
	fc.wmu.Unlock()
	if err == nil && fc.met != nil {
		fc.met.WireBytesOut.Add(float64(len(buf)))
	}
	return err
}

// writeFrame is finishFrame for a frame built in pooled storage, which
// goes back to the pool.
func (fc *frameConn) writeFrame(bp *[]byte, buf []byte) error {
	err := fc.finishFrame(buf)
	*bp = buf
	framePool.Put(bp)
	return err
}

// writeHop puts a routed hop on the wire under its originator's id: a
// REQUEST for a discovery, a QROUTE for a query route.
func (fc *frameConn) writeHop(h *overlay.Hop) error {
	typ := byte(frameRequest)
	if h.Query {
		typ = frameQRoute
	}
	bp := framePool.Get().(*[]byte)
	return fc.writeFrame(bp, appendPayload(beginTracedFrame(*bp, typ, h.Origin, h.TC), (*hop)(h)))
}

func (fc *frameConn) writeResponse(id uint64, resp *overlay.Reply) error {
	bp := framePool.Get().(*[]byte)
	return fc.writeFrame(bp, appendPayload(beginFrame(*bp, frameResponse, id), (*reply)(resp)))
}

func (fc *frameConn) writeQuery(id uint64, tc trace.Context, q *queryReq) error {
	bp := framePool.Get().(*[]byte)
	return fc.writeFrame(bp, appendPayload(beginTracedFrame(*bp, frameQuery, id, tc), q))
}

// writeStream puts one step of a stream on the wire in a single
// write: unless batch is empty, a STREAM frame with batch and the
// traversal counters so far (the client reports live stats mid-stream
// like the in-process engines); when last is set, the STREAM_END frame
// with the same counters and st.Err behind it.
func (fc *frameConn) writeStream(id uint64, batch []keys.Key, st *streamEnd, last bool) error {
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:0]
	var err error
	if len(batch) > 0 {
		buf = appendFrameHeader(buf, frameStream, id)
		buf = appendStreamBatch(buf, batch, st)
		err = sealFrame(buf, 0)
	}
	if last && err == nil {
		start := len(buf)
		buf = appendFrameHeader(buf, frameStreamEnd, id)
		buf = appendPayload(buf, st)
		err = sealFrame(buf, start)
	}
	if err == nil {
		err = fc.write(buf)
	}
	*bp = buf
	framePool.Put(bp)
	return err
}

func (fc *frameConn) writeCancel(id uint64) error {
	bp := framePool.Get().(*[]byte)
	return fc.writeFrame(bp, beginFrame(*bp, frameCancel, id))
}

func (fc *frameConn) writeReplica(id uint64, tc trace.Context, b *core.ReplicaBatch) error {
	bp := framePool.Get().(*[]byte)
	buf := appendPayload(beginTracedFrame(*bp, frameReplica, id, tc), (*replicaBatch)(b))
	if fc.met != nil {
		fc.met.ReplicaTransferBytes.Add(float64(len(buf) - frameHeaderSize))
	}
	return fc.writeFrame(bp, buf)
}

// writeRaw frames an already-encoded payload: the control plane and
// the admin plane build their payloads outside the transport.
func (fc *frameConn) writeRaw(typ byte, id uint64, payload []byte) error {
	bp := framePool.Get().(*[]byte)
	return fc.writeFrame(bp, append(beginFrame(*bp, typ, id), payload...))
}

func (fc *frameConn) writeStreamAck(id uint64) error {
	bp := framePool.Get().(*[]byte)
	return fc.writeFrame(bp, beginFrame(*bp, frameStreamAck, id))
}

// --- payloads ----------------------------------------------------------------

// hop is the payload of a routed frame. A REQUEST carries the key, the
// phase as "going up" and the route; a QROUTE the anchor, the phase as
// "descending", the nodes visited and the route. The route is what
// every hop handles the same way: where the walk stands, its counters,
// and who waits for the answer. The frame type tells the two apart, so
// a decode reads Query, which the caller sets from the type.
type hop overlay.Hop

func (h *hop) code(w *wire) {
	w.key(&h.Key)
	phase := h.Down == h.Query
	w.bool(&phase)
	if w.dec {
		h.Down = phase == h.Query
	}
	if h.Query {
		w.int(&h.Visited)
	}
	w.key(&h.At)
	w.int(&h.Logical)
	w.int(&h.Physical)
	w.int(&h.Redirects)
	w.u64(&h.Origin)
	w.str(&h.ReplyTo)
}

// reply is the payload of a RESPONSE: the answer that ends a routed
// request, the installed count (Logical) of a REPLICA, or an Ack.
type reply overlay.Reply

func (r *reply) code(w *wire) {
	w.bool(&r.Found)
	w.bool(&r.Dropped)
	w.strs(&r.Values)
	w.key(&r.Anchor)
	w.int(&r.Logical)
	w.int(&r.Physical)
	w.int(&r.Visited)
	w.str(&r.Err)
	w.bool(&r.Retry)
}

// code sends a negative (unlimited) limit as 0, which means the same.
func (q *queryReq) code(w *wire) {
	w.bool(&q.Range)
	w.key(&q.Prefix)
	w.key(&q.Lo)
	w.key(&q.Hi)
	limit := max(q.Limit, 0)
	w.int(&limit)
	if w.dec {
		q.Limit = limit
	}
	w.key(&q.Entry)
	w.bool(&q.Walk)
	codeCounters(w, &q.QueryResult)
}

func (end *streamEnd) code(w *wire) {
	codeCounters(w, &end.QueryResult)
	w.str(&end.Err)
}

// codeCounters codes the traversal counters a QUERY payload ends with
// and every STREAM and STREAM_END payload starts with.
func codeCounters(w *wire, r *core.QueryResult) {
	w.int(&r.LogicalHops)
	w.int(&r.PhysicalHops)
	w.int(&r.NodesVisited)
}

// replicaBatch is the payload of a REPLICA frame: From and To, then
// each snapshot's key, values and loads, in the order the plan shipped
// them (its structure is rebuilt from the key set, so none travels).
type replicaBatch core.ReplicaBatch

func (b *replicaBatch) code(w *wire) {
	w.key(&b.From)
	w.key(&b.To)
	n := len(b.Infos)
	w.count(&n)
	if w.dec {
		b.Infos = make([]core.Replica, n)
	}
	for i := range b.Infos {
		r := &b.Infos[i]
		w.key(&r.Key)
		w.strs(&r.Data)
		w.int(&r.LoadPrev)
		w.int(&r.LoadCur)
	}
}

// appendStreamBatch encodes a STREAM payload: the counters of
// progress (Err unused), then batch front-coded key by key.
func appendStreamBatch(b []byte, batch []keys.Key, progress *streamEnd) []byte {
	w := wire{b: b}
	codeCounters(&w, &progress.QueryResult)
	n := len(batch)
	w.int(&n)
	var prev keys.Key
	for _, k := range batch {
		shared := len(keys.GCP(prev, k))
		suffix := k[shared:]
		w.int(&shared)
		w.key(&suffix)
		prev = k
	}
	return w.b
}

// decodeStreamBatch parses a STREAM payload. The returned keys are
// substrings of one string allocated for the frame. A first pass
// checks every length against the payload and sizes that arena, so a
// hostile frame — a shared longer than the previous key, a count or a
// suffix beyond the payload, keys expanding past maxFramePayload — is
// an error before anything is allocated from it.
func decodeStreamBatch(p []byte) ([]keys.Key, streamEnd, error) {
	var progress streamEnd
	w := wire{p: p, dec: true}
	codeCounters(&w, &progress.QueryResult)
	if w.err != nil {
		return nil, progress, fmt.Errorf("stream counters: %w", w.err)
	}
	n, ok := w.uvarint()
	if !ok || n > streamFrameKeys { // no server fills a frame beyond the ceiling
		return nil, progress, errors.New("transport: implausible stream key count")
	}
	total, prevLen := uint64(0), uint64(0)
	for r, i := w, uint64(0); i < n; i++ {
		shared, _ := r.uvarint()
		suffix, ok := r.uvarint()
		if !ok || shared > prevLen || suffix > uint64(len(r.p)) {
			return nil, progress, fmt.Errorf("transport: corrupt stream key %d of %d", i, n)
		}
		r.p = r.p[suffix:]
		prevLen = shared + suffix
		if total += prevLen; total > maxFramePayload {
			return nil, progress, errFrameTooLarge
		}
	}
	out := make([]keys.Key, n)
	var arena strings.Builder
	arena.Grow(int(total)) // no reallocation below: one arena per frame
	var prev string
	for i := range out {
		shared, _ := w.uvarint()
		suffix, _ := w.uvarint()
		start := arena.Len()
		arena.WriteString(prev[:shared])
		arena.Write(w.p[:suffix])
		w.p = w.p[suffix:]
		prev = arena.String()[start:]
		out[i] = keys.Key(prev)
	}
	return out, progress, nil
}
