// The daemon handshake payloads: JOIN/HELLO negotiate a remote
// process into the overlay, LEAVE announces a graceful departure, and
// APPLY replicates one serialized overlay mutation to a member's
// full-state mirror. The transport frames and round-trips these
// (Options.Control on the server side, ControlRoundTrip and client.go
// on the client side) but does not act on them — internal/daemon owns
// the protocol. Payloads use the same hand-rolled varint codecs as
// the routing frames; the handshake is explicitly versioned so
// incompatible daemons reject each other instead of corrupting a
// shared overlay. The whole overlay travels (Mirror, in HELLO and
// RESYNC) as the image internal/persist writes to snapshot files: it
// has no wire codec of its own.

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dlpt/internal/keys"
	"dlpt/internal/overlay"
)

// HandshakeVersion is the JOIN/HELLO protocol revision. A joiner and
// its bootstrap peer must agree exactly: the APPLY mutation stream
// only keeps mirrors convergent when both sides interpret it the
// same way. Revision 2 added the steward epoch to HELLO, LEAVE and
// APPLY and the ELECT/EPOCH_OPEN/RESYNC/FETCH failover frames.
// Revision 3 routes REQUEST and QROUTE one way with a direct reply: a
// revision-2 member would answer up a chain nobody waits on.
// Revision 4 front-codes STREAM payloads and slow-starts their credit:
// a revision-3 member would parse the keys as a catalogue envelope.
// Revision 5 ships HELLO and RESYNC state as one overlay image: a
// revision-4 member would parse it as an inline node list.
const HandshakeVersion = 5

// Exported frame-type aliases for control round-trips: the daemon
// package addresses its frames with these, and a control handler
// returns one of the *Resp/Ack types.
const (
	FrameJoin       = frameJoin
	FrameHello      = frameHello
	FrameLeave      = frameLeave
	FrameApply      = frameApply
	FrameStatus     = frameStatus
	FrameStatusResp = frameStatusResp
	FrameAdmin      = frameAdmin
	FrameAdminResp  = frameAdminResp
	// The failover control plane (see frame.go for semantics).
	FrameElect         = frameElect
	FrameElectResp     = frameElectResp
	FrameEpochOpen     = frameEpochOpen
	FrameEpochOpenResp = frameEpochOpenResp
	FrameResync        = frameResync
	FrameFetch         = frameFetch
	FrameFetchResp     = frameFetchResp
	// FrameAck acknowledges a LEAVE, APPLY or RESYNC (a plain RESPONSE
	// frame carrying only an error string; see EncodeAck).
	FrameAck = frameResponse
)

// Overlay mutation opcodes carried by ApplyRecord. Every mutation the
// steward serializes is one of these; members replay them against
// their mirrors in sequence order.
const (
	OpRegister   = byte(1)
	OpUnregister = byte(2)
	OpJoin       = byte(3)
	OpLeave      = byte(4)
	OpCrash      = byte(5)
	OpRecover    = byte(6)
	OpReplicate  = byte(7)
)

// JoinRequest asks a bootstrap daemon to admit the sender into the
// overlay. Addr is the advertised address of the listener the joiner
// has already bound — placement assigns the ring id, the listener
// address is the joiner's to declare.
type JoinRequest struct {
	Version   int
	Alphabet  string // digit string; must match the overlay's exactly
	Placement string // join-placement policy name; must match
	Addr      string
	Capacity  int
}

// Member is one daemon-hosted peer in the overlay's member table.
type Member struct {
	ID       keys.Key
	Addr     string
	Capacity int
}

// Mirror is the whole overlay as a steward hands it to a daemon to
// install: the body of an admitting HELLO, and all of a RESYNC — the
// re-bootstrap of a member too far behind (or ahead of) a new steward
// to reconcile by replay. Image is the overlay image
// (persist.AppendImage) consistent with sequence number Seq; decoded,
// it aliases the payload.
type Mirror struct {
	Epoch       uint64
	Seq         uint64
	StewardAddr string
	Members     []Member
	Image       []byte
}

// HelloInfo answers a JoinRequest. A rejection carries only Err (and
// StewardAddr when the refusing daemon is a member redirecting the
// joiner to the steward). An admission carries the assigned ring id
// and the mirror the joiner installs.
type HelloInfo struct {
	Version    int
	Err        string
	Alphabet   string
	Placement  string
	AssignedID keys.Key
	Mirror
}

// LeaveNotice announces a graceful departure: the steward hands the
// peer's tree nodes off (RemovePeer) and broadcasts the departure.
// Epoch is the epoch the departing member last honored; a steward
// refuses notices fenced behind its own epoch.
type LeaveNotice struct {
	ID    keys.Key
	Addr  string
	Epoch uint64
}

// ApplyRecord is one serialized overlay mutation. The steward assigns
// Seq and broadcasts the record to every member; a member receiving a
// record out of sequence must refuse it (its mirror would diverge).
// A record sent by a member to the steward with Seq == 0 is an
// origination request: the steward serializes it, assigns the
// sequence number and broadcasts it back out. Epoch fences the
// stream: a receiver refuses records stamped with an epoch older
// than the one it honors, so a deposed steward's late broadcasts
// bounce instead of splitting the brain.
type ApplyRecord struct {
	Seq      uint64
	Epoch    uint64
	Op       byte
	Key      keys.Key // Register/Unregister: catalogue key
	Value    string   // Register/Unregister: value
	ID       keys.Key // Join/Leave/Crash: peer ring id
	Capacity int      // Join: peer capacity
	Addr     string   // Join: advertised listener address
}

// EncodeJoin marshals a JoinRequest payload.
func EncodeJoin(jr *JoinRequest) []byte {
	b := binary.AppendUvarint(nil, uint64(jr.Version))
	b = appendString(b, jr.Alphabet)
	b = appendString(b, jr.Placement)
	b = appendString(b, jr.Addr)
	return binary.AppendUvarint(b, uint64(jr.Capacity))
}

// DecodeJoin unmarshals a JoinRequest payload.
func DecodeJoin(p []byte) (*JoinRequest, error) {
	var jr JoinRequest
	var err error
	var v uint64
	if v, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("join version: %w", err)
	}
	jr.Version = int(v)
	if jr.Alphabet, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("join alphabet: %w", err)
	}
	if jr.Placement, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("join placement: %w", err)
	}
	if jr.Addr, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("join addr: %w", err)
	}
	if v, _, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("join capacity: %w", err)
	}
	jr.Capacity = int(v)
	return &jr, nil
}

// EncodeHello marshals a HelloInfo payload.
func EncodeHello(h *HelloInfo) []byte {
	b := binary.AppendUvarint(nil, uint64(h.Version))
	b = appendString(b, h.Err)
	b = appendString(b, h.Alphabet)
	b = appendString(b, h.Placement)
	b = appendString(b, string(h.AssignedID))
	return appendMirror(b, &h.Mirror)
}

// EncodeMirror marshals a RESYNC payload.
func EncodeMirror(m *Mirror) []byte { return appendMirror(nil, m) }

// DecodeMirror unmarshals a RESYNC payload.
func DecodeMirror(p []byte) (*Mirror, error) {
	var m Mirror
	if err := getMirror(p, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

func appendMirror(b []byte, m *Mirror) []byte {
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, m.Seq)
	b = appendString(b, m.StewardAddr)
	b = appendMembers(b, m.Members)
	b = binary.AppendUvarint(b, uint64(len(m.Image)))
	return append(b, m.Image...)
}

// getMirror decodes a Mirror that runs to the end of p.
func getMirror(p []byte, m *Mirror) error {
	var err error
	if m.Epoch, p, err = getUvarint(p); err != nil {
		return fmt.Errorf("mirror epoch: %w", err)
	}
	if m.Seq, p, err = getUvarint(p); err != nil {
		return fmt.Errorf("mirror seq: %w", err)
	}
	if m.StewardAddr, p, err = getString(p); err != nil {
		return fmt.Errorf("mirror steward: %w", err)
	}
	if m.Members, p, err = getMembers(p); err != nil {
		return fmt.Errorf("mirror: %w", err)
	}
	n, p, err := getUvarint(p)
	if err != nil {
		return fmt.Errorf("mirror image length: %w", err)
	}
	if n > uint64(len(p)) {
		return errors.New("transport: truncated mirror image")
	}
	m.Image = p[:n:n]
	return nil
}

// appendMembers encodes a count-prefixed member table.
func appendMembers(b []byte, ms []Member) []byte {
	b = binary.AppendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = appendString(b, string(m.ID))
		b = appendString(b, m.Addr)
		b = binary.AppendUvarint(b, uint64(m.Capacity))
	}
	return b
}

// getMembers decodes a count-prefixed member table.
func getMembers(p []byte) ([]Member, []byte, error) {
	v, p, err := getUvarint(p)
	if err != nil {
		return nil, nil, fmt.Errorf("member count: %w", err)
	}
	if v > uint64(len(p)) {
		return nil, nil, errors.New("transport: implausible member count")
	}
	ms := make([]Member, 0, v)
	for i := uint64(0); i < v; i++ {
		var m Member
		var s string
		var c uint64
		if s, p, err = getString(p); err != nil {
			return nil, nil, fmt.Errorf("member %d id: %w", i, err)
		}
		m.ID = keys.Key(s)
		if m.Addr, p, err = getString(p); err != nil {
			return nil, nil, fmt.Errorf("member %d addr: %w", i, err)
		}
		if c, p, err = getUvarint(p); err != nil {
			return nil, nil, fmt.Errorf("member %d capacity: %w", i, err)
		}
		m.Capacity = int(c)
		ms = append(ms, m)
	}
	return ms, p, nil
}

// DecodeHello unmarshals a HelloInfo payload.
func DecodeHello(p []byte) (*HelloInfo, error) {
	var h HelloInfo
	var err error
	var s string
	var v uint64
	if v, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("hello version: %w", err)
	}
	h.Version = int(v)
	if h.Err, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("hello err: %w", err)
	}
	if h.Alphabet, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("hello alphabet: %w", err)
	}
	if h.Placement, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("hello placement: %w", err)
	}
	if s, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("hello assigned id: %w", err)
	}
	h.AssignedID = keys.Key(s)
	if err = getMirror(p, &h.Mirror); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	return &h, nil
}

// EncodeLeave marshals a LeaveNotice payload.
func EncodeLeave(ln *LeaveNotice) []byte {
	b := appendString(nil, string(ln.ID))
	b = appendString(b, ln.Addr)
	return binary.AppendUvarint(b, ln.Epoch)
}

// DecodeLeave unmarshals a LeaveNotice payload.
func DecodeLeave(p []byte) (*LeaveNotice, error) {
	var ln LeaveNotice
	var err error
	var s string
	if s, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("leave id: %w", err)
	}
	ln.ID = keys.Key(s)
	if ln.Addr, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("leave addr: %w", err)
	}
	if ln.Epoch, _, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("leave epoch: %w", err)
	}
	return &ln, nil
}

// EncodeApply marshals an ApplyRecord payload.
func EncodeApply(rec *ApplyRecord) []byte {
	b := binary.AppendUvarint(nil, rec.Seq)
	b = binary.AppendUvarint(b, rec.Epoch)
	b = append(b, rec.Op)
	b = appendString(b, string(rec.Key))
	b = appendString(b, rec.Value)
	b = appendString(b, string(rec.ID))
	b = binary.AppendUvarint(b, uint64(rec.Capacity))
	return appendString(b, rec.Addr)
}

// DecodeApply unmarshals an ApplyRecord payload.
func DecodeApply(p []byte) (*ApplyRecord, error) {
	var rec ApplyRecord
	var err error
	var s string
	var v uint64
	if rec.Seq, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("apply seq: %w", err)
	}
	if rec.Epoch, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("apply epoch: %w", err)
	}
	if len(p) < 1 {
		return nil, errors.New("apply op: truncated")
	}
	rec.Op, p = p[0], p[1:]
	if s, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("apply key: %w", err)
	}
	rec.Key = keys.Key(s)
	if rec.Value, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("apply value: %w", err)
	}
	if s, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("apply id: %w", err)
	}
	rec.ID = keys.Key(s)
	if v, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("apply capacity: %w", err)
	}
	rec.Capacity = int(v)
	if rec.Addr, _, err = getString(p); err != nil {
		return nil, fmt.Errorf("apply addr: %w", err)
	}
	return &rec, nil
}

// ElectRequest asks a surviving member to vote for the sender as the
// next steward under the proposed epoch. Seq is the candidate's last
// applied sequence number; voters use it only for observability — the
// winner instead pulls any records it missed from the most advanced
// voter before opening the epoch.
type ElectRequest struct {
	Epoch uint64   // proposed epoch; must exceed the voter's epoch and promise
	ID    keys.Key // candidate's ring id
	Addr  string   // candidate's advertised listener address
	Seq   uint64   // candidate's last applied sequence number
}

// ElectReply is a voter's answer. A grant promises the voter will
// refuse any epoch at or below the proposed one from other candidates.
// Epoch echoes the voter's fencing floor (its max of honored and
// promised epoch) so a refused candidate can re-propose above it;
// Seq is the voter's last applied sequence number so the winner can
// fetch records it never saw; StewardAddr is set when the voter
// refuses because its steward link is still up.
type ElectReply struct {
	Granted     bool
	Epoch       uint64
	Seq         uint64
	StewardAddr string
	Err         string
}

// EpochOpen is the new steward's barrier message: every member adopts
// the epoch and steward address, reports its last applied sequence
// number, and refuses traffic from older epochs from then on. Seq is
// the new steward's sequence number after catch-up — the stream
// position the epoch opens at.
type EpochOpen struct {
	Epoch       uint64
	StewardID   keys.Key
	StewardAddr string
	Seq         uint64
}

// EpochOpenReply reports the member's last applied sequence number so
// the steward can replay the gap (or fall back to a full RESYNC, whose
// payload is a Mirror).
type EpochOpenReply struct {
	Seq uint64
	Err string
}

// FetchRequest asks a member for its applied records from sequence
// number From onward — the election winner's catch-up pull from the
// most advanced voter.
type FetchRequest struct {
	From uint64
}

// FetchReply carries the fetched records in sequence order. An empty
// Err with fewer records than asked means the sender's log no longer
// covers the range.
type FetchReply struct {
	Records []*ApplyRecord
	Err     string
}

// EncodeElect marshals an ElectRequest payload.
func EncodeElect(er *ElectRequest) []byte {
	b := binary.AppendUvarint(nil, er.Epoch)
	b = appendString(b, string(er.ID))
	b = appendString(b, er.Addr)
	return binary.AppendUvarint(b, er.Seq)
}

// DecodeElect unmarshals an ElectRequest payload.
func DecodeElect(p []byte) (*ElectRequest, error) {
	var er ElectRequest
	var err error
	var s string
	if er.Epoch, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("elect epoch: %w", err)
	}
	if s, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("elect id: %w", err)
	}
	er.ID = keys.Key(s)
	if er.Addr, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("elect addr: %w", err)
	}
	if er.Seq, _, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("elect seq: %w", err)
	}
	return &er, nil
}

// EncodeElectReply marshals an ElectReply payload.
func EncodeElectReply(er *ElectReply) []byte {
	b := appendBool(nil, er.Granted)
	b = binary.AppendUvarint(b, er.Epoch)
	b = binary.AppendUvarint(b, er.Seq)
	b = appendString(b, er.StewardAddr)
	return appendString(b, er.Err)
}

// DecodeElectReply unmarshals an ElectReply payload.
func DecodeElectReply(p []byte) (*ElectReply, error) {
	var er ElectReply
	var err error
	if er.Granted, p, err = getBool(p); err != nil {
		return nil, fmt.Errorf("elect reply granted: %w", err)
	}
	if er.Epoch, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("elect reply epoch: %w", err)
	}
	if er.Seq, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("elect reply seq: %w", err)
	}
	if er.StewardAddr, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("elect reply steward: %w", err)
	}
	if er.Err, _, err = getString(p); err != nil {
		return nil, fmt.Errorf("elect reply err: %w", err)
	}
	return &er, nil
}

// EncodeEpochOpen marshals an EpochOpen payload.
func EncodeEpochOpen(eo *EpochOpen) []byte {
	b := binary.AppendUvarint(nil, eo.Epoch)
	b = appendString(b, string(eo.StewardID))
	b = appendString(b, eo.StewardAddr)
	return binary.AppendUvarint(b, eo.Seq)
}

// DecodeEpochOpen unmarshals an EpochOpen payload.
func DecodeEpochOpen(p []byte) (*EpochOpen, error) {
	var eo EpochOpen
	var err error
	var s string
	if eo.Epoch, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("epoch open epoch: %w", err)
	}
	if s, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("epoch open steward id: %w", err)
	}
	eo.StewardID = keys.Key(s)
	if eo.StewardAddr, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("epoch open steward addr: %w", err)
	}
	if eo.Seq, _, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("epoch open seq: %w", err)
	}
	return &eo, nil
}

// EncodeEpochOpenReply marshals an EpochOpenReply payload.
func EncodeEpochOpenReply(eo *EpochOpenReply) []byte {
	b := binary.AppendUvarint(nil, eo.Seq)
	return appendString(b, eo.Err)
}

// DecodeEpochOpenReply unmarshals an EpochOpenReply payload.
func DecodeEpochOpenReply(p []byte) (*EpochOpenReply, error) {
	var eo EpochOpenReply
	var err error
	if eo.Seq, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("epoch open reply seq: %w", err)
	}
	if eo.Err, _, err = getString(p); err != nil {
		return nil, fmt.Errorf("epoch open reply err: %w", err)
	}
	return &eo, nil
}

// EncodeFetch marshals a FetchRequest payload.
func EncodeFetch(fr *FetchRequest) []byte {
	return binary.AppendUvarint(nil, fr.From)
}

// DecodeFetch unmarshals a FetchRequest payload.
func DecodeFetch(p []byte) (*FetchRequest, error) {
	var fr FetchRequest
	var err error
	if fr.From, _, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("fetch from: %w", err)
	}
	return &fr, nil
}

// EncodeFetchReply marshals a FetchReply payload. Records nest as
// length-prefixed EncodeApply payloads.
func EncodeFetchReply(fr *FetchReply) []byte {
	b := appendString(nil, fr.Err)
	b = binary.AppendUvarint(b, uint64(len(fr.Records)))
	for _, rec := range fr.Records {
		rb := EncodeApply(rec)
		b = binary.AppendUvarint(b, uint64(len(rb)))
		b = append(b, rb...)
	}
	return b
}

// DecodeFetchReply unmarshals a FetchReply payload.
func DecodeFetchReply(p []byte) (*FetchReply, error) {
	var fr FetchReply
	var err error
	var v uint64
	if fr.Err, p, err = getString(p); err != nil {
		return nil, fmt.Errorf("fetch reply err: %w", err)
	}
	if v, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("fetch reply record count: %w", err)
	}
	if v > uint64(len(p)) {
		return nil, errors.New("transport: implausible record count")
	}
	fr.Records = make([]*ApplyRecord, 0, v)
	for i := uint64(0); i < v; i++ {
		var n uint64
		if n, p, err = getUvarint(p); err != nil {
			return nil, fmt.Errorf("fetch reply record %d len: %w", i, err)
		}
		if n > uint64(len(p)) {
			return nil, errors.New("transport: truncated fetch record")
		}
		rec, err := DecodeApply(p[:n])
		if err != nil {
			return nil, fmt.Errorf("fetch reply record %d: %w", i, err)
		}
		p = p[n:]
		fr.Records = append(fr.Records, rec)
	}
	return &fr, nil
}

// EncodeAck marshals a LEAVE/APPLY acknowledgement (a RESPONSE frame
// carrying only an error string; empty means success).
func EncodeAck(errStr string) []byte {
	resp := overlay.Reply{Err: errStr}
	return appendResponse(nil, &resp)
}

// DecodeAck unmarshals an acknowledgement, returning its in-band
// error string.
func DecodeAck(p []byte) (string, error) {
	var resp overlay.Reply
	if err := decodeResponse(p, &resp); err != nil {
		return "", err
	}
	return resp.Err, nil
}
