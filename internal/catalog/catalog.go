// Package catalog is the shared marshalling layer for node
// catalogues: the sorted set of data keys and their values that every
// overlay image (snapshot files, HELLO, RESYNC) carries. Every encoded
// catalogue is a self-describing envelope
//
//	version(1) | sections(1) | payload
//
// where the version byte selects the codec and the sections byte
// records whether the payload carries each entry's values (SecValues,
// the only section). Two versions exist:
//
//	version 0 — legacy: the verbose length-prefixed encoding the
//	            transport frames used historically. Read-only: it
//	            decodes forever (see legacy.go), nothing writes it.
//	version 1 — LOUDS: a succinct trie encoding (see louds.go) that
//	            stores the key set as a breadth-first LOUDS bitmap
//	            with a rank/select directory, one label byte per trie
//	            node, and a deduplicated value section. On
//	            prefix-sharing service-key corpora it is roughly an
//	            order of magnitude smaller than the legacy form.
//
// Decoding dispatches on the version byte, so every snapshot ever
// written stays loadable. Entries decode in ascending key order
// regardless of version.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strings"
)

// Entry is one catalogue entry: a data key and its registered values.
type Entry struct {
	Key    string
	Values []string
}

// Sections says which per-entry sections an encoded catalogue
// carries. Keys are always present.
type Sections uint8

// SecValues carries each entry's registered values. It is the only
// section: the load and structure sections only earlier REPLICA frames
// carried, never an image, and a decoder refuses them.
const SecValues Sections = 1

// Codec encodes and decodes the payload part of an envelope. The
// envelope (version and sections bytes) is handled by Append/Decode.
type Codec interface {
	// Version is the envelope version byte identifying this codec.
	Version() byte
	// AppendPayload appends the encoding of entries to dst. Entries
	// need not be sorted; the encoded form is canonical (sorted by
	// key, later duplicates winning).
	AppendPayload(dst []byte, entries []Entry, secs Sections) []byte
	// DecodePayload parses a payload produced by AppendPayload,
	// returning the entries in ascending key order.
	DecodePayload(p []byte, secs Sections) ([]Entry, error)
}

var (
	// LOUDS is the version-1 succinct codec, the one that writes every
	// envelope: frames through Append, images through AppendSeq.
	LOUDS Codec = loudsCodec{}
	// Deprecated: Default is LOUDS, the only codec that writes; name LOUDS.
	Default = LOUDS
)

// decoder is the read half of a codec — all that is left of a
// version nothing writes any more.
type decoder interface {
	DecodePayload(p []byte, secs Sections) ([]Entry, error)
}

// envelope checks the header of a full envelope and splits it into
// the decoder its version byte selects, its sections and its payload.
func envelope(p []byte) (decoder, Sections, []byte, error) {
	if len(p) < 2 {
		return nil, 0, nil, errors.New("catalog: truncated envelope")
	}
	secs := Sections(p[1])
	if secs&^SecValues != 0 {
		return nil, 0, nil, fmt.Errorf("catalog: unknown sections 0x%02x", p[1])
	}
	switch p[0] {
	case versionLegacy:
		return legacyCodec{}, secs, p[2:], nil
	case versionLOUDS:
		return loudsCodec{}, secs, p[2:], nil
	}
	return nil, 0, nil, fmt.Errorf("catalog: unknown codec version %d", p[0])
}

const (
	versionLegacy = 0
	versionLOUDS  = 1
)

// Append encodes entries as a full envelope with the given codec.
func Append(dst []byte, c Codec, entries []Entry, secs Sections) []byte {
	dst = append(dst, c.Version(), byte(secs))
	return c.AppendPayload(dst, entries, secs)
}

// AppendSeq is Append with LOUDS, the codec of every image, over a
// sequence it may walk several times. Entries that come in ascending key
// order, without duplicates, are encoded straight from the sequence.
func AppendSeq(dst []byte, entries iter.Seq[Entry], secs Sections) []byte {
	return appendLOUDS(append(dst, versionLOUDS, byte(secs)), entries, secs)
}

// AppendPrefixed appends what fill appends to dst, preceded by its
// length as a uvarint. fill writes behind a one-byte placeholder; a
// length that needs more bytes moves what it wrote up in place.
func AppendPrefixed(dst []byte, fill func([]byte) []byte) []byte {
	at := len(dst) + 1
	dst = fill(append(dst, 0))
	var n [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(n[:], uint64(len(dst)-at))
	dst = append(dst, n[1:w]...)
	copy(dst[at+w-1:], dst[at:len(dst)-w+1])
	copy(dst[at-1:], n[:w])
	return dst
}

// Decode parses a full envelope, dispatching on its version byte.
// Entries come back in ascending key order.
func Decode(p []byte) ([]Entry, Sections, error) {
	c, secs, payload, err := envelope(p)
	if err != nil {
		return nil, 0, err
	}
	entries, err := c.DecodePayload(payload, secs)
	if err != nil {
		return nil, 0, err
	}
	return entries, secs, nil
}

// canonicalize returns a copy of entries sorted by key with later
// duplicates winning — the canonical form every encoder writes.
func canonicalize(entries []Entry) []Entry {
	out := slices.Clone(entries)
	slices.Reverse(out) // the stable sort then puts the later duplicate first
	slices.SortStableFunc(out, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return slices.CompactFunc(out, func(a, b Entry) bool { return a.Key == b.Key })
}
