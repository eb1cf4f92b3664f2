// Package catalog is the shared marshalling layer for node
// catalogues: the sorted set of tree-node states that snapshots
// persist and REPLICA frames ship. Every encoded catalogue is
// a self-describing envelope
//
//	version(1) | sections(1) | payload
//
// where the version byte selects the codec and the sections byte
// records which optional per-entry sections (values, structure,
// loads) the payload carries. Two versions exist:
//
//	version 0 — legacy: the verbose length-prefixed encoding the
//	            transport frames used historically. Read-only: it
//	            decodes forever (see legacy.go), nothing writes it.
//	version 1 — LOUDS: a succinct trie encoding (see louds.go) that
//	            stores the key set as a breadth-first LOUDS bitmap
//	            with a rank/select directory, one label byte per trie
//	            node, and deduplicated value/structure sections. On
//	            prefix-sharing service-key corpora it is roughly an
//	            order of magnitude smaller than the legacy form.
//
// Decoding dispatches on the version byte, so every snapshot ever
// written stays loadable. Entries decode in ascending key order
// regardless of version.
package catalog

import (
	"errors"
	"fmt"
	"sort"
)

// Entry is one catalogue entry: a tree node's key plus the optional
// sections a particular use carries (snapshots: values only; replica
// batches: everything).
type Entry struct {
	Key       string
	Values    []string
	Father    string
	HasFather bool
	Children  []string
	LoadPrev  int
	LoadCur   int
}

// Sections says which per-entry sections an encoded catalogue
// carries. Keys are always present.
type Sections uint8

const (
	// SecValues carries each entry's registered values.
	SecValues Sections = 1 << iota
	// SecStruct carries each entry's father and children links.
	SecStruct
	// SecLoads carries each entry's load history (LoadPrev, LoadCur).
	SecLoads

	// SecAll is every section: the full NodeInfo fidelity replica
	// batches need.
	SecAll = SecValues | SecStruct | SecLoads
)

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
	// LOUDS is the version-1 succinct codec.
	LOUDS Codec = loudsCodec{}
	// Default is the codec snapshots and frames are written with.
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
	if secs&^SecAll != 0 {
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

// canonicalize returns entries sorted by key with later duplicates
// winning — the canonical form every encoder writes. The input slice is
// never mutated; when it is already canonical it is returned as is.
func canonicalize(entries []Entry) []Entry {
	canon := true
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			canon = false
			break
		}
	}
	if canon {
		return entries
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	out := sorted[:0]
	for _, e := range sorted {
		if n := len(out); n > 0 && out[n-1].Key == e.Key {
			out[n-1] = e // later duplicate wins
			continue
		}
		out = append(out, e)
	}
	return out
}
