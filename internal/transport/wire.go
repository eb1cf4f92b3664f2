// The one payload codec. Every payload with a fixed layout — the
// control messages of handshake.go, and the routed hop, its reply, the
// QUERY, the REPLICA batch and the STREAM_END of frame.go — has one
// code method that names its fields in order over a wire. The wire
// appends each field when it encodes and parses it when it decodes, so
// a field added to one direction is in the other.
//
// A field is a uvarint (integers), one byte (booleans, opcodes), or a
// uvarint length and that many bytes (strings, byte strings); a list is
// a uvarint count and its elements. There is no per-message preamble:
// every payload decodes on its own, which multiplexing requires. A
// decode refuses a truncated field, a count larger than the bytes that
// remain, and an integer beyond int; the first error stops it, and
// bytes after the last field are ignored.

package transport

import (
	"encoding/binary"
	"errors"
	"math"

	"dlpt/internal/keys"
)

// Message is a payload the wire codes field by field.
type Message interface{ code(*wire) }

// Marshal encodes m. It and Unmarshal are small enough to inline, so
// at a call site that names the message's type m.code is a static call
// and neither m nor the wire escapes.
func Marshal(m Message) []byte {
	var w wire
	m.code(&w)
	return w.b
}

// Unmarshal decodes p into m. Byte-string fields alias p.
func Unmarshal(p []byte, m Message) error {
	w := wire{p: p, dec: true}
	m.code(&w)
	return w.err
}

// appendPayload encodes m behind the frame header already in b.
func appendPayload(b []byte, m Message) []byte {
	w := wire{b: b}
	m.code(&w)
	return w.b
}

// wire encodes into b while dec is unset and decodes from p while it
// is set. Encoding only reads the fields it is handed.
type wire struct {
	b, p []byte
	dec  bool
	err  error
}

var (
	errTruncated   = errors.New("transport: truncated payload")
	errCount       = errors.New("transport: implausible count")
	errIntOverflow = errors.New("transport: integer beyond int")
)

// uvarint reads the next uvarint; ok is false once the decode failed.
func (w *wire) uvarint() (v uint64, ok bool) {
	if w.err != nil {
		return 0, false
	}
	v, n := binary.Uvarint(w.p)
	if n <= 0 {
		w.err = errTruncated
		return 0, false
	}
	w.p = w.p[n:]
	return v, true
}

// take reads the next length-prefixed byte string, aliasing the payload.
func (w *wire) take() ([]byte, bool) {
	n, ok := w.uvarint()
	if ok && n > uint64(len(w.p)) {
		w.err, ok = errTruncated, false
	}
	if !ok {
		return nil, false
	}
	b := w.p[:n:n]
	w.p = w.p[n:]
	return b, true
}

func (w *wire) u64(v *uint64) {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, *v)
	} else if x, ok := w.uvarint(); ok {
		*v = x
	}
}

// int codes a non-negative int. No encoder writes a negative one, so a
// decoded value beyond math.MaxInt is refused: it would come back
// negative, and a negative counter defeats the bounds that compare it.
func (w *wire) int(v *int) {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, uint64(*v))
	} else if x, ok := w.uvarint(); ok && x > math.MaxInt {
		w.err = errIntOverflow
	} else if ok {
		*v = int(x)
	}
}

// count codes the length of the list that follows. Every element takes
// a byte at least, so a decoded count beyond the bytes that remain is
// refused before anything is allocated from it.
func (w *wire) count(n *int) {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, uint64(*n))
		return
	}
	*n = 0
	if x, ok := w.uvarint(); ok && x > uint64(len(w.p)) {
		w.err = errCount
	} else if ok {
		*n = int(x)
	}
}

func (w *wire) byte(v *byte) {
	switch {
	case !w.dec:
		w.b = append(w.b, *v)
	case w.err != nil:
	case len(w.p) == 0:
		w.err = errTruncated
	default:
		*v, w.p = w.p[0], w.p[1:]
	}
}

func (w *wire) bool(v *bool) {
	var x byte
	if *v {
		x = 1
	}
	w.byte(&x)
	if w.dec {
		*v = x != 0
	}
}

func (w *wire) str(s *string) {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, uint64(len(*s)))
		w.b = append(w.b, *s...)
	} else if b, ok := w.take(); ok {
		*s = string(b)
	}
}

func (w *wire) key(k *keys.Key) { w.str((*string)(k)) }

// raw codes a byte string; decoded, it aliases the payload.
func (w *wire) raw(v *[]byte) {
	if !w.dec {
		w.b = binary.AppendUvarint(w.b, uint64(len(*v)))
		w.b = append(w.b, *v...)
	} else if b, ok := w.take(); ok {
		*v = b
	}
}

// strs codes a counted list of strings; an empty one decodes as nil.
func (w *wire) strs(v *[]string) {
	n := len(*v)
	w.count(&n)
	if w.dec {
		*v = nil
		if n > 0 {
			*v = make([]string, n)
		}
	}
	for i := range *v {
		w.str(&(*v)[i])
	}
}
