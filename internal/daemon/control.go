// Control dispatch, the handlers of the frames that carry the mutation
// stream (JOIN, LEAVE, APPLY: decode, fence, hand to commitLocked or
// advanceLocked), round trips, and the refusals an ACK carries.

package daemon

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dlpt/internal/transport"
)

// control dispatches the control-plane frames the transport hands us.
func (d *Daemon) control(typ byte, payload []byte) (byte, []byte) {
	switch typ {
	case transport.FrameJoin:
		return d.handleJoin(payload)
	case transport.FrameLeave:
		return d.handleLeave(payload)
	case transport.FrameApply:
		return d.handleApply(payload)
	case transport.FrameStatus:
		return d.handleStatus()
	case transport.FrameAdmin:
		return d.handleAdmin(payload)
	case transport.FrameElect:
		return d.handleElect(payload)
	case transport.FrameEpochOpen:
		return d.handleEpochOpen(payload)
	case transport.FrameResync:
		return d.handleResync(payload)
	case transport.FrameFetch:
		return d.handleFetch(payload)
	}
	return ack(fmt.Sprintf("daemon: unknown control frame %d", typ))
}

// handleJoin admits (or rejects) a joining daemon. Members redirect
// to the steward; the steward validates compatibility, draws the ring
// id, commits the join like any other record and replies with the
// mirror.
func (d *Daemon) handleJoin(payload []byte) (byte, []byte) {
	reject := func(errStr, steward string) (byte, []byte) {
		return transport.FrameHello, transport.Marshal(&transport.HelloInfo{
			Version: transport.HandshakeVersion, Err: errStr,
			Mirror: transport.Mirror{StewardAddr: steward},
		})
	}
	var jr transport.JoinRequest
	err := transport.Unmarshal(payload, &jr)
	if err != nil {
		return reject("daemon: malformed join: "+err.Error(), "")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return reject(ackShuttingDown, "")
	}
	if !d.steward {
		return reject(ackNotSteward, d.stewardAddr)
	}
	if jr.Version != transport.HandshakeVersion {
		return reject(fmt.Sprintf("%shandshake version %d, want %d",
			incompatiblePrefix, jr.Version, transport.HandshakeVersion), "")
	}
	if jr.Alphabet != d.alphaDigits {
		return reject(incompatiblePrefix+"alphabet mismatch", "")
	}
	if jr.Placement != d.placementName {
		return reject(fmt.Sprintf("%splacement %q, want %q",
			incompatiblePrefix, jr.Placement, d.placementName), "")
	}
	if jr.Capacity <= 0 {
		return reject(incompatiblePrefix+"capacity must be positive", "")
	}
	if _, joined := d.memberAtLocked(jr.Addr); joined {
		return reject(incompatiblePrefix+"address already joined: "+jr.Addr, "")
	}
	id := d.cluster.DrawJoinID(jr.Capacity)
	err = d.commitLocked(&transport.ApplyRecord{Op: transport.OpJoin, ID: id, Capacity: jr.Capacity, Addr: jr.Addr})
	if errors.Is(err, errDeposed) {
		// Fenced during this join's broadcast: send the joiner on to the
		// steward that deposed us rather than a mirror of a dead epoch.
		return reject(ackDeposed, d.stewardAddr)
	}
	if err != nil {
		return reject("daemon: join failed: "+err.Error(), "")
	}
	d.logf("dlptd steward admitted peer %s at %s (overlay now %d daemons)", id, jr.Addr, len(d.members))
	return transport.FrameHello, transport.Marshal(&transport.HelloInfo{
		Version:    transport.HandshakeVersion,
		Alphabet:   d.alphaDigits,
		Placement:  d.placementName,
		AssignedID: id,
		Mirror:     d.mirrorLocked(),
	})
}

// handleLeave runs a member's graceful departure: the peer's nodes
// hand off deterministically in every mirror via the committed record.
func (d *Daemon) handleLeave(payload []byte) (byte, []byte) {
	var notice transport.LeaveNotice
	if err := transport.Unmarshal(payload, &notice); err != nil {
		return ack("daemon: malformed leave: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.steward {
		return ack(ackNotSteward)
	}
	if notice.Epoch < d.epoch {
		return ack(staleEpochAck(d.epoch, d.stewardAddr))
	}
	m, ok := d.members[notice.ID]
	if !ok {
		return ack("") // already departed
	}
	if err := d.commitLocked(&transport.ApplyRecord{Op: transport.OpLeave, ID: notice.ID, Addr: m.Addr}); err != nil {
		return ack("daemon: leave: " + err.Error())
	}
	d.logf("dlptd steward: peer %s at %s left (overlay now %d daemons)", notice.ID, m.Addr, len(d.members))
	return ack("")
}

// handleApply processes one mutation record: sequence 0 is a member's
// origination request the steward commits; a positive sequence is the
// steward's broadcast (or repair replay), which advances the mirror
// iff it extends its sequence exactly.
func (d *Daemon) handleApply(payload []byte) (byte, []byte) {
	var rec transport.ApplyRecord
	if err := transport.Unmarshal(payload, &rec); err != nil {
		return ack("daemon: malformed apply: " + err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if rec.Seq == 0 {
		// Origination requests carry no stream position, so epoch
		// fencing does not apply: the steward serializes them under its
		// own epoch.
		if !d.steward {
			return ack(ackNotSteward)
		}
		if rec.Op != transport.OpRegister && rec.Op != transport.OpUnregister {
			return ack("daemon: only catalogue mutations originate remotely")
		}
		if err := d.commitLocked(&rec); err != nil {
			return ack(err.Error()) // errDeposed reads ackDeposed: the originator retries
		}
		return ack("")
	}
	if rec.Epoch < d.epoch {
		// Epoch fence: a deposed steward's late broadcast. The refusal
		// names the live epoch and steward so the sender learns its fate.
		return ack(staleEpochAck(d.epoch, d.stewardAddr))
	}
	if d.steward {
		return ack("daemon: steward does not accept sequenced applies")
	}
	if err := d.advanceLocked(&rec); err != nil {
		d.met.ApplyRefusals.Inc()
		return ack(err.Error())
	}
	return ack("")
}

// ack is the reply frame of a control handler that answers in band:
// "" accepts, anything else is the refusal.
func ack(errStr string) (byte, []byte) {
	return transport.FrameAck, transport.Marshal(&transport.Ack{Err: errStr})
}

// errBadReply marks a reply that is not the decodable frame the
// request calls for: the peer answered, so it is a protocol fault and
// not a link failure.
var errBadReply = errors.New("daemon: malformed reply")

// roundTrip sends one control frame and waits up to timeout for its
// reply, which must be a frame of type want.
func (d *Daemon) roundTrip(timeout time.Duration, addr string, typ byte, payload []byte, want byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(d.ctx, timeout)
	defer cancel()
	rtyp, rp, err := d.cluster.ControlRoundTrip(ctx, addr, typ, payload)
	if err != nil {
		return nil, err
	}
	if rtyp != want {
		return nil, fmt.Errorf("%w: %v", errBadReply, replyError(rtyp, rp))
	}
	return rp, nil
}

// ackRoundTrip is roundTrip for the frames an ACK answers. es is the
// receiver's in-band answer ("" means accepted); err reports that no
// answer was obtained.
func (d *Daemon) ackRoundTrip(timeout time.Duration, addr string, typ byte, payload []byte) (es string, err error) {
	rp, err := d.roundTrip(timeout, addr, typ, payload, transport.FrameAck)
	if err != nil {
		return "", err
	}
	var a transport.Ack
	if err = transport.Unmarshal(rp, &a); err != nil {
		return "", fmt.Errorf("%w: %v", errBadReply, err)
	}
	return a.Err, nil
}

// Refusals: what a non-empty ACK says. Three fixed phrases and one
// parameterised form report steward churn — they say nothing about the
// frame and heal once a failover settles; one form reports where a
// mirror stands; everything else is a semantic refusal of the frame
// itself.
const (
	ackNotSteward   = "daemon: not steward"
	ackDeposed      = "daemon: deposed during broadcast, retry"
	ackShuttingDown = "daemon: shutting down"

	staleEpochPrefix = "daemon: stale epoch: "      // + "<epoch> <stewardAddr>"
	gapPrefix        = "daemon: sequence gap: got " // + "<seq>, want <seq>"
	gapWant          = ", want "
)

// staleEpochAck formats the fencing refusal: the refuser's epoch and
// steward, so a deposed steward learns who replaced it.
func staleEpochAck(epoch uint64, stewardAddr string) string {
	return staleEpochPrefix + strconv.FormatUint(epoch, 10) + " " + stewardAddr
}

// gapAck formats a mirror's refusal of a record that does not extend
// its sequence: got is the record's sequence, applied the mirror's.
func gapAck(got, applied uint64) string {
	return gapPrefix + strconv.FormatUint(got, 10) + gapWant + strconv.FormatUint(applied+1, 10)
}

type refusalKind int

const (
	refusalOther refusalKind = iota // semantic: about the frame itself
	refusalChurn                    // one of the three fixed phrases
	refusalStale                    // epoch fence; epoch and steward are the refuser's
	refusalGap                      // sequence gap; seq is the refuser's last applied
)

// refusal is one classified in-band refusal.
type refusal struct {
	kind    refusalKind
	epoch   uint64
	steward string
	seq     uint64
}

// retryable reports steward churn: the origination loop keeps retrying
// it; anything else is surfaced at once.
func (r refusal) retryable() bool { return r.kind == refusalChurn || r.kind == refusalStale }

// parseRefusal classifies a refusal. The match is on the whole fixed
// forms this package emits — a parsed form must format back to the
// input — never on a substring: a semantic refusal quotes client input,
// which may spell any phrase.
func parseRefusal(es string) refusal {
	switch es {
	case ackNotSteward, ackDeposed, ackShuttingDown:
		return refusal{kind: refusalChurn}
	}
	if rest, ok := strings.CutPrefix(es, staleEpochPrefix); ok {
		num, addr, _ := strings.Cut(rest, " ")
		if e, err := strconv.ParseUint(num, 10, 64); err == nil && staleEpochAck(e, addr) == es {
			return refusal{kind: refusalStale, epoch: e, steward: addr}
		}
	}
	if rest, ok := strings.CutPrefix(es, gapPrefix); ok {
		g, w, _ := strings.Cut(rest, gapWant)
		got, err1 := strconv.ParseUint(g, 10, 64)
		want, err2 := strconv.ParseUint(w, 10, 64)
		if err1 == nil && err2 == nil && want > 0 && gapAck(got, want-1) == es {
			return refusal{kind: refusalGap, seq: want - 1}
		}
	}
	return refusal{}
}
