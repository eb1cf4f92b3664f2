package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// legacyCodec decodes version 0: the verbose length-prefixed entry
// encoding the transport REPLICA frames and snapshots used before the
// succinct codec existed. One entry costs its full key plus its values
// inline — no sharing, no deduplication. Nothing writes it any more
// (the encoder survives in legacy_test.go as the reference the fuzzers
// hold LOUDS against); it stays readable so every snapshot ever
// written loads.
type legacyCodec struct{}

func (legacyCodec) DecodePayload(p []byte, secs Sections) ([]Entry, error) {
	n, p, err := Uvarint(p)
	if err != nil {
		return nil, fmt.Errorf("catalog: entry count: %w", err)
	}
	// Each entry costs at least one byte on the wire: a count beyond
	// the remaining payload is corrupt, and pre-allocating from it
	// would let a tiny input demand an arbitrary allocation.
	if n > uint64(len(p))+1 {
		return nil, errors.New("catalog: implausible entry count")
	}
	out := make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e Entry
		if e.Key, p, err = getString(p); err != nil {
			return nil, fmt.Errorf("catalog: entry %d key: %w", i, err)
		}
		if secs&SecValues != 0 {
			var m uint64
			if m, p, err = Uvarint(p); err != nil {
				return nil, fmt.Errorf("catalog: entry %d value count: %w", i, err)
			}
			if m > uint64(len(p)) {
				return nil, errors.New("catalog: implausible value count")
			}
			for j := uint64(0); j < m; j++ {
				var v string
				if v, p, err = getString(p); err != nil {
					return nil, fmt.Errorf("catalog: entry %d value %d: %w", i, j, err)
				}
				e.Values = append(e.Values, v)
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// --- shared wire helpers (persist's records and images use them too) --------

// AppendString appends s to b, prefixed by its length as a uvarint.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Uvarint reads a uvarint off p, and returns it with the bytes after it.
func Uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, errors.New("catalog: truncated varint")
	}
	return v, p[n:], nil
}

func getString(p []byte) (string, []byte, error) {
	n, p, err := Uvarint(p)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(p)) < n {
		return "", nil, errors.New("catalog: truncated string")
	}
	return string(p[:n]), p[n:], nil
}
