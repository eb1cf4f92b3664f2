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
		dst = appendString(dst, e.Key)
		if secs&SecStruct != 0 {
			// The father of a fatherless entry encodes empty — the
			// canonical form every codec agrees on.
			if e.HasFather {
				dst = appendString(dst, e.Father)
				dst = append(dst, 1)
			} else {
				dst = appendString(dst, "")
				dst = append(dst, 0)
			}
			dst = binary.AppendUvarint(dst, uint64(len(e.Children)))
			for _, c := range e.Children {
				dst = appendString(dst, c)
			}
		}
		if secs&SecValues != 0 {
			dst = binary.AppendUvarint(dst, uint64(len(e.Values)))
			for _, v := range e.Values {
				dst = appendString(dst, v)
			}
		}
		if secs&SecLoads != 0 {
			dst = binary.AppendUvarint(dst, uint64(e.LoadPrev))
			dst = binary.AppendUvarint(dst, uint64(e.LoadCur))
		}
	}
	return dst
}
