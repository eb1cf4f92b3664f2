// The daemon handshake payloads: JOIN/HELLO negotiate a remote
// process into the overlay, LEAVE announces a graceful departure, and
// APPLY replicates one serialized overlay mutation to a member's
// full-state mirror. The transport frames and round-trips these
// (Options.Control on the server side, ControlRoundTrip and client.go
// on the client side) but does not act on them — internal/daemon owns
// the protocol. Each payload is a Message: its code method lists its
// fields once for both directions (wire.go), and the daemon moves it
// with Marshal and Unmarshal. The handshake is explicitly versioned so
// incompatible daemons reject each other instead of corrupting a
// shared overlay. The whole overlay travels (Mirror, in HELLO and
// RESYNC) as the image internal/persist writes to snapshot files: it
// has no wire codec of its own.

package transport

import "dlpt/internal/keys"

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

func (jr *JoinRequest) code(w *wire) {
	w.int(&jr.Version)
	w.str(&jr.Alphabet)
	w.str(&jr.Placement)
	w.str(&jr.Addr)
	w.int(&jr.Capacity)
}

// code runs to the end of the payload: a Mirror is all of a RESYNC and
// the tail of a HELLO.
func (m *Mirror) code(w *wire) {
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.str(&m.StewardAddr)
	n := len(m.Members)
	w.count(&n)
	if w.dec {
		m.Members = make([]Member, n)
	}
	for i := range m.Members {
		mb := &m.Members[i]
		w.key(&mb.ID)
		w.str(&mb.Addr)
		w.int(&mb.Capacity)
	}
	w.raw(&m.Image)
}

func (h *HelloInfo) code(w *wire) {
	w.int(&h.Version)
	w.str(&h.Err)
	w.str(&h.Alphabet)
	w.str(&h.Placement)
	w.key(&h.AssignedID)
	h.Mirror.code(w)
}

func (ln *LeaveNotice) code(w *wire) {
	w.key(&ln.ID)
	w.str(&ln.Addr)
	w.u64(&ln.Epoch)
}

func (rec *ApplyRecord) code(w *wire) {
	w.u64(&rec.Seq)
	w.u64(&rec.Epoch)
	w.byte(&rec.Op)
	w.key(&rec.Key)
	w.str(&rec.Value)
	w.key(&rec.ID)
	w.int(&rec.Capacity)
	w.str(&rec.Addr)
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

// Ack acknowledges a LEAVE, APPLY or RESYNC in band: an empty Err
// accepts, anything else is the refusal. It travels as a RESPONSE
// (FrameAck) carrying nothing but the error.
type Ack struct {
	Err string
}

func (er *ElectRequest) code(w *wire) {
	w.u64(&er.Epoch)
	w.key(&er.ID)
	w.str(&er.Addr)
	w.u64(&er.Seq)
}

func (er *ElectReply) code(w *wire) {
	w.bool(&er.Granted)
	w.u64(&er.Epoch)
	w.u64(&er.Seq)
	w.str(&er.StewardAddr)
	w.str(&er.Err)
}

func (eo *EpochOpen) code(w *wire) {
	w.u64(&eo.Epoch)
	w.key(&eo.StewardID)
	w.str(&eo.StewardAddr)
	w.u64(&eo.Seq)
}

func (eo *EpochOpenReply) code(w *wire) {
	w.u64(&eo.Seq)
	w.str(&eo.Err)
}

func (fr *FetchRequest) code(w *wire) { w.u64(&fr.From) }

// code nests each record as a length-prefixed ApplyRecord payload.
func (fr *FetchReply) code(w *wire) {
	w.str(&fr.Err)
	n := len(fr.Records)
	w.count(&n)
	if w.dec {
		fr.Records = make([]*ApplyRecord, n)
	}
	for i := range fr.Records {
		var p []byte
		if !w.dec {
			p = Marshal(fr.Records[i])
		}
		w.raw(&p)
		if w.dec && w.err == nil {
			fr.Records[i] = new(ApplyRecord)
			w.err = Unmarshal(p, fr.Records[i])
		}
	}
}

// code keeps the reply it encodes apart from the one it decodes: an
// Err that only passes through to the wire then stays off the heap.
func (a *Ack) code(w *wire) {
	if !w.dec {
		r := reply{Err: a.Err}
		r.code(w)
		return
	}
	var r reply
	r.code(w)
	a.Err = r.Err
}
