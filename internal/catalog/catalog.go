// Package catalog is the shared marshalling layer for node
// catalogues: the sorted set of tree-node states that snapshots
// persist and REPLICA frames ship. Every encoded catalogue is
// a self-describing envelope
//
//	version(1) | sections(1) | payload
//
// where the version byte selects the codec and the sections byte
// records which optional per-entry sections (values, structure,
// loads) the payload carries. Two codecs exist:
//
//	version 0 — Legacy: the verbose length-prefixed encoding the
//	            transport frames used historically; kept readable
//	            (and writable, for mixed-version interop) forever.
//	version 1 — LOUDS: a succinct trie encoding (see louds.go) that
//	            stores the key set as a breadth-first LOUDS bitmap
//	            with a rank/select directory, one label byte per trie
//	            node, and deduplicated value/structure sections. On
//	            prefix-sharing service-key corpora it is roughly an
//	            order of magnitude smaller than the legacy form.
//
// Decoding dispatches on the version byte, so a reader that knows
// both codecs accepts either — old snapshots stay loadable and
// mixed-version clusters interoperate. Entries decode in ascending
// key order regardless of codec.
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

// The codec registry. Default is what new snapshots and frames are
// written with; decoding accepts every registered version.
var (
	// Legacy is the version-0 verbose codec.
	Legacy Codec = legacyCodec{}
	// LOUDS is the version-1 succinct codec.
	LOUDS Codec = loudsCodec{}
	// Default is the codec used when the caller does not choose one.
	Default = LOUDS
)

// ByVersion returns the codec registered for an envelope version
// byte.
func ByVersion(v byte) (Codec, bool) {
	switch v {
	case versionLegacy:
		return Legacy, true
	case versionLOUDS:
		return LOUDS, true
	}
	return nil, false
}

// ByName resolves a codec by its human name ("legacy", "louds") —
// the configuration surface for forcing the migration codec.
func ByName(name string) (Codec, bool) {
	switch name {
	case "legacy":
		return Legacy, true
	case "louds", "":
		return LOUDS, true
	}
	return nil, false
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
	if len(p) < 2 {
		return nil, 0, errors.New("catalog: truncated envelope")
	}
	c, ok := ByVersion(p[0])
	if !ok {
		return nil, 0, fmt.Errorf("catalog: unknown codec version %d", p[0])
	}
	secs := Sections(p[1])
	if secs&^SecAll != 0 {
		return nil, 0, fmt.Errorf("catalog: unknown sections 0x%02x", p[1])
	}
	entries, err := c.DecodePayload(p[2:], secs)
	if err != nil {
		return nil, 0, err
	}
	return entries, secs, nil
}

// canonicalize returns entries sorted by key with later duplicates
// winning — the canonical form both codecs encode. The input slice is
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
