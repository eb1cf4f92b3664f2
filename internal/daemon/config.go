package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dlpt/internal/keys"
	"dlpt/internal/transport"
)

// Duration is a time.Duration that unmarshals from JSON either as a
// Go duration string ("2s", "150ms") or as integer nanoseconds.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch t := v.(type) {
	case float64:
		*d = Duration(time.Duration(t))
		return nil
	case string:
		dur, err := time.ParseDuration(t)
		if err != nil {
			return fmt.Errorf("daemon: bad duration %q: %w", t, err)
		}
		*d = Duration(dur)
		return nil
	default:
		return fmt.Errorf("daemon: duration must be a string or integer, got %T", v)
	}
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Config describes one dlptd process. The Bootstrap list decides the
// role: empty means this daemon seeds a fresh overlay and acts as its
// steward (the process that serializes every overlay mutation);
// non-empty means it joins an existing overlay through one of the
// listed addresses.
type Config struct {
	// Listen is the bind address of the daemon's peer listener:
	// "host:port", "host" (ephemeral port) or empty (loopback
	// ephemeral).
	Listen string `json:"listen"`
	// Advertise overrides the host other daemons dial, for listeners
	// bound to an unspecified address (0.0.0.0).
	Advertise string `json:"advertise,omitempty"`
	// Bootstrap lists peer daemons to join through, tried in order
	// with backoff. Empty makes this daemon the overlay's steward.
	Bootstrap []string `json:"bootstrap,omitempty"`
	// DataDir enables durable persistence. Only the steward uses it:
	// on restart the catalogue is reloaded and re-registered into a
	// fresh overlay (members always rejoin through Bootstrap and
	// receive their state from the steward's handshake).
	DataDir string `json:"data_dir,omitempty"`
	// Capacity is this daemon's peer capacity (default 64).
	Capacity int `json:"capacity,omitempty"`
	// Alphabet names the overlay key alphabet: "binary",
	// "lower_alnum", "printable_ascii" (the default), or a literal
	// digit string. All daemons of one overlay must agree; the join
	// handshake enforces it.
	Alphabet string `json:"alphabet,omitempty"`
	// Placement names the join-placement policy (internal/lb); empty
	// draws uniformly random ring ids. Must match across the overlay.
	Placement string `json:"placement,omitempty"`
	// Seed fixes the daemon's rng stream (0 seeds from the clock).
	Seed int64 `json:"seed,omitempty"`
	// ReplicateEvery is the steward's replication tick period
	// (default 10s). Each tick ships the tree nodes that changed to
	// their ring successor on every mirror and, with DataDir set,
	// fsyncs the journal or a new snapshot image.
	ReplicateEvery Duration `json:"replicate_every,omitempty"`
	// ProbeEvery is the link-maintenance probe interval (default 1s).
	ProbeEvery Duration `json:"probe_every,omitempty"`
	// MissThreshold is how many consecutive failed probes declare a
	// peer daemon crashed (default 3).
	MissThreshold int `json:"miss_threshold,omitempty"`
	// JoinTimeout bounds the bootstrap retry loop (default 30s).
	JoinTimeout Duration `json:"join_timeout,omitempty"`
	// ElectionTimeout bounds one election vote round-trip and paces
	// the candidate's retry loop after a failed round (default 1s).
	ElectionTimeout Duration `json:"election_timeout,omitempty"`
	// ForwardRetry is the total budget a member spends retrying a
	// catalogue origination against a lost or changing steward —
	// covering a failover window — before reporting ErrNoSteward
	// (default 10s).
	ForwardRetry Duration `json:"forward_retry,omitempty"`
	// MetricsAddr, when non-empty, opens an HTTP listener at this
	// address serving /metrics (Prometheus text format) and
	// /debug/trace (recent per-hop span trees as JSON). Empty disables
	// the listener; the daemon still aggregates metrics internally and
	// serves them over the ADMIN wire path (`dlptd status -obs`).
	MetricsAddr string `json:"metrics_addr,omitempty"`
	// Net opens the daemon's listeners and pool connections (nil:
	// transport.TCP); tests set it, config files never do.
	Net transport.Net `json:"-"`
}

// LoadConfig reads a JSON config file.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("daemon: parse %s: %w", path, err)
	}
	return &cfg, nil
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	orDefault(&c.Capacity, 64)
	orDefault(&c.ReplicateEvery, Duration(10*time.Second))
	orDefault(&c.ProbeEvery, Duration(time.Second))
	orDefault(&c.MissThreshold, 3)
	orDefault(&c.JoinTimeout, Duration(30*time.Second))
	orDefault(&c.ElectionTimeout, Duration(time.Second))
	orDefault(&c.ForwardRetry, Duration(10*time.Second))
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
	if c.Net == nil {
		c.Net = transport.TCP
	}
	return c
}

// orDefault sets a field that is not positive to def.
func orDefault[T int | Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// alphabetFor resolves the configured alphabet name (or literal digit
// string) to an alphabet.
func alphabetFor(name string) (*keys.Alphabet, error) {
	switch name {
	case "", "printable_ascii":
		return keys.PrintableASCII, nil
	case "binary":
		return keys.Binary, nil
	case "lower_alnum":
		return keys.LowerAlnum, nil
	default:
		return keys.NewAlphabet(name)
	}
}
