package daemon

import (
	"math"
	"testing"
)

// Every refusal form this package emits parses back to what it was
// built from, and look-alikes — a prefix, a suffix, a number spelled
// another way, a phrase quoted inside a semantic refusal — do not.
func TestParseRefusal(t *testing.T) {
	for _, tc := range []struct {
		es   string
		want refusal
	}{
		{ackNotSteward, refusal{kind: refusalChurn}},
		{ackDeposed, refusal{kind: refusalChurn}},
		{ackShuttingDown, refusal{kind: refusalChurn}},
		{staleEpochAck(7, "10.0.0.1:7401"), refusal{kind: refusalStale, epoch: 7, steward: "10.0.0.1:7401"}},
		{staleEpochAck(7, ""), refusal{kind: refusalStale, epoch: 7}},
		{gapAck(23, 3), refusal{kind: refusalGap, seq: 3}},
		{gapAck(4, 4), refusal{kind: refusalGap, seq: 4}},
		{"", refusal{}},
		{ackNotSteward + " ", refusal{}},
		{`keys: key "` + ackNotSteward + `" not in alphabet`, refusal{}},
		{"daemon: stale epoch: 7", refusal{}},
		{"daemon: stale epoch: 07 a:1", refusal{}},
		{"daemon: stale epoch: +7 a:1", refusal{}},
		{"daemon: sequence gap: got 5, want 0", refusal{}},
		{"daemon: sequence gap: got 5, want 4 ", refusal{}},
		{"daemon: sequence gap: got 5, want 04", refusal{}},
	} {
		if got := parseRefusal(tc.es); got != tc.want {
			t.Errorf("parseRefusal(%q) = %+v, want %+v", tc.es, got, tc.want)
		}
	}
}

// FuzzParseRefusal: the two parameterised forms round-trip for any
// parameters, and an arbitrary string classifies as churn, fence or gap
// only if it is, byte for byte, one of the fixed forms.
func FuzzParseRefusal(f *testing.F) {
	f.Add(ackNotSteward, uint64(2), uint64(3))
	f.Add(staleEpochAck(2, "127.0.0.1:7401"), uint64(0), uint64(math.MaxUint64))
	f.Add(gapAck(23, 3), uint64(1), uint64(1))
	f.Add("daemon: stale epoch: 2 a b", uint64(9), uint64(9))
	f.Add(`keys: key "daemon: deposed during broadcast, retry" not in alphabet`, uint64(5), uint64(6))
	f.Fuzz(func(t *testing.T, s string, a, b uint64) {
		if got, want := parseRefusal(staleEpochAck(a, s)), (refusal{kind: refusalStale, epoch: a, steward: s}); got != want {
			t.Fatalf("stale epoch round trip: got %+v, want %+v", got, want)
		}
		if b < math.MaxUint64 {
			if got, want := parseRefusal(gapAck(a, b)), (refusal{kind: refusalGap, seq: b}); got != want {
				t.Fatalf("gap round trip: got %+v, want %+v", got, want)
			}
		}
		switch r := parseRefusal(s); r.kind {
		case refusalChurn:
			if s != ackNotSteward && s != ackDeposed && s != ackShuttingDown {
				t.Fatalf("%q classified as churn", s)
			}
		case refusalStale:
			if s != staleEpochAck(r.epoch, r.steward) {
				t.Fatalf("%q classified as a fence of epoch %d by %q", s, r.epoch, r.steward)
			}
		case refusalGap:
			var got uint64 // the digits after the prefix; they fit, or the parse had failed
			for _, c := range s[len(gapPrefix):] {
				if c < '0' || c > '9' {
					break
				}
				got = got*10 + uint64(c-'0')
			}
			if s != gapAck(got, r.seq) {
				t.Fatalf("%q classified as a gap at seq %d", s, r.seq)
			}
		default:
			if r.retryable() {
				t.Fatalf("%q is retryable without being a fixed form", s)
			}
		}
	})
}
