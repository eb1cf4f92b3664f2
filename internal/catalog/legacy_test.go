package catalog

import "encoding/binary"

// The version-0 encoder, kept as the test-side reference: the
// round-trip tests and fuzzers encode every catalogue with both
// versions and require the decoders to agree.

// Legacy is the version-0 verbose codec.
var Legacy Codec = legacyCodec{}

func (legacyCodec) Version() byte { return versionLegacy }

func (legacyCodec) AppendPayload(dst []byte, entries []Entry, secs Sections) []byte {
	entries = canonicalize(entries)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = AppendString(dst, e.Key)
		if secs&SecValues != 0 {
			dst = binary.AppendUvarint(dst, uint64(len(e.Values)))
			for _, v := range e.Values {
				dst = AppendString(dst, v)
			}
		}
	}
	return dst
}
