package obs

import (
	"sync/atomic"
	"time"
)

// Canonical series names. The CI metrics smoke and the bench snapshot
// read these by name, so they are constants rather than literals.
const (
	SeriesVisits            = "dlpt_visits_total"
	SeriesHops              = "dlpt_hops_total"
	SeriesHopLatency        = "dlpt_hop_latency_seconds"
	SeriesQueryLatency      = "dlpt_query_latency_seconds"
	SeriesVisitLoad         = "dlpt_visit_load"
	SeriesPeerNodes         = "dlpt_peer_nodes"
	SeriesSaturationDrops   = "dlpt_saturation_drops_total"
	SeriesPoolConns         = "dlpt_pool_conns"
	SeriesPoolDials         = "dlpt_pool_dials_total"
	SeriesWireBytesIn       = "dlpt_wire_bytes_in_total"
	SeriesWireBytesOut      = "dlpt_wire_bytes_out_total"
	SeriesReplicationLag    = "dlpt_replication_lag_seconds"
	SeriesReplicaSnapshots  = "dlpt_replica_snapshot_msgs_total"
	SeriesReplicaTransfers  = "dlpt_replica_transfer_msgs_total"
	SeriesReplicaMovedNodes = "dlpt_replica_transferred_nodes_total"
	SeriesReplicaBytes      = "dlpt_replica_transfer_bytes_total"
	SeriesTopologyEvents    = "dlpt_topology_events_total"
	SeriesApplySeq          = "dlpt_apply_seq"
	SeriesApplyLag          = "dlpt_apply_lag_seconds"
	SeriesEpoch             = "dlpt_epoch"
	SeriesElections         = "dlpt_elections_total"
	SeriesFailoverDuration  = "dlpt_failover_seconds"
	SeriesMirrorRepairs     = "dlpt_mirror_repairs_total"
	SeriesApplyRefusals     = "dlpt_apply_refusals_total"
	SeriesSnapshotStall     = "dlpt_snapshot_write_stall_seconds"
	SeriesSnapshotBytes     = "dlpt_snapshot_bytes"
	SeriesSnapshotKeys      = "dlpt_snapshot_keys"
)

// Traversal phase labels.
const (
	PhaseClimb    = "climb"
	PhaseDescend  = "descend"
	PhaseWalk     = "walk"
	PhaseQRoute   = "qroute"
	PhaseRelay    = "relay"
	PhaseDiscover = "discover"
)

var phases = []string{PhaseClimb, PhaseDescend, PhaseWalk, PhaseQRoute, PhaseRelay, PhaseDiscover}

// Metrics pre-registers every series the engines instrument, so the
// hot paths touch pre-resolved atomics instead of the registry's
// maps. A nil *Metrics disables everything it covers.
type Metrics struct {
	Registry *Registry

	Visits *Counter
	Drops  *Counter

	hops   map[string]*Counter
	hopLat map[string]*Histogram

	DiscoverLatency *Histogram
	QueryLatency    *Histogram

	PoolConns    *Gauge
	PoolDials    *Counter
	WireBytesIn  *Counter
	WireBytesOut *Counter

	ReplicaSnapshotMsgs  *Counter
	ReplicaTransferMsgs  *Counter
	ReplicaTransferNodes *Counter
	ReplicaTransferBytes *Counter
	ReplicationLag       *Gauge

	ApplySeq *Gauge
	ApplyLag *Gauge

	Epoch            *Gauge
	FailoverDuration *Histogram
	ApplyRefusals    *Counter

	SnapshotStall *Gauge
	SnapshotBytes *Gauge
	SnapshotKeys  *Gauge

	topo      map[string]*Counter
	elections map[string]*Counter
	repairs   map[string]*Counter

	// lastReplicate / lastApply are unix-nano stamps the lag gauges
	// derive from at scrape time.
	lastReplicate atomic.Int64
	lastApply     atomic.Int64
}

// NewMetrics registers the full series set on reg and returns the
// pre-resolved bundle.
func NewMetrics(reg *Registry) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		Registry: reg,
		Visits:   reg.Counter(SeriesVisits, "Tree node visits by routed traversals."),
		Drops:    reg.Counter(SeriesSaturationDrops, "Discovery visits dropped by saturated peers."),
		hops:     make(map[string]*Counter, len(phases)),
		hopLat:   make(map[string]*Histogram, len(phases)),
		DiscoverLatency: reg.Histogram(SeriesQueryLatency,
			"End-to-end latency of routed operations.", nil, "op", "discover"),
		QueryLatency: reg.Histogram(SeriesQueryLatency,
			"End-to-end latency of routed operations.", nil, "op", "query"),
		PoolConns:    reg.Gauge(SeriesPoolConns, "Live pooled client connections."),
		PoolDials:    reg.Counter(SeriesPoolDials, "Lifetime TCP dials by the connection pool."),
		WireBytesIn:  reg.Counter(SeriesWireBytesIn, "Frame bytes read off the wire."),
		WireBytesOut: reg.Counter(SeriesWireBytesOut, "Frame bytes written to the wire."),
		ReplicaSnapshotMsgs: reg.Counter(SeriesReplicaSnapshots,
			"Node snapshots shipped to successors by Replicate ticks."),
		ReplicaTransferMsgs: reg.Counter(SeriesReplicaTransfers,
			"Replica-set transfer messages from topology changes."),
		ReplicaTransferNodes: reg.Counter(SeriesReplicaMovedNodes,
			"Replica snapshots moved by topology-change re-homing."),
		ReplicaTransferBytes: reg.Counter(SeriesReplicaBytes,
			"REPLICA frame payload bytes shipped over the wire."),
		ReplicationLag: reg.Gauge(SeriesReplicationLag,
			"Seconds since the last completed replication tick."),
		ApplySeq: reg.Gauge(SeriesApplySeq, "Last applied mutation sequence number."),
		ApplyLag: reg.Gauge(SeriesApplyLag,
			"Seconds since the last APPLY-stream mutation was applied."),
		Epoch: reg.Gauge(SeriesEpoch, "Current steward epoch of the overlay."),
		FailoverDuration: reg.Histogram(SeriesFailoverDuration,
			"Steward failover duration: steward declared dead to new steward open.", nil),
		ApplyRefusals: reg.Counter(SeriesApplyRefusals,
			"Sequenced APPLY records this mirror refused (sequence gap or failed apply)."),
		SnapshotStall: reg.Gauge(SeriesSnapshotStall,
			"Write-lock stall of the last durable snapshot: catalogue capture plus journal rotation."),
		SnapshotBytes: reg.Gauge(SeriesSnapshotBytes,
			"Encoded size of the last durable snapshot."),
		SnapshotKeys: reg.Gauge(SeriesSnapshotKeys,
			"Catalogue entries in the last durable snapshot."),
		topo:      make(map[string]*Counter, 6),
		elections: make(map[string]*Counter, 4),
		repairs:   make(map[string]*Counter, 2),
	}
	for _, ph := range phases {
		m.hops[ph] = reg.Counter(SeriesHops, "Tree edges traversed, by traversal phase.", "phase", ph)
		m.hopLat[ph] = reg.Histogram(SeriesHopLatency,
			"Per-hop latency by traversal phase.", nil, "phase", ph)
	}
	for _, ev := range []string{"join", "leave", "crash", "recover", "balance"} {
		m.topo[ev] = reg.Counter(SeriesTopologyEvents, "Peer lifecycle events.", "event", ev)
	}
	for _, ev := range []string{"started", "won", "lost", "deposed"} {
		m.elections[ev] = reg.Counter(SeriesElections, "Steward election events.", "event", ev)
	}
	for _, kind := range []string{"records", "image"} {
		m.repairs[kind] = reg.Counter(SeriesMirrorRepairs,
			"Mirror repairs a steward started for a lagging member, by payload.", "kind", kind)
	}
	reg.OnScrape(func() {
		if t := m.lastReplicate.Load(); t != 0 {
			m.ReplicationLag.Set(time.Since(time.Unix(0, t)).Seconds())
		}
		if t := m.lastApply.Load(); t != 0 {
			m.ApplyLag.Set(time.Since(time.Unix(0, t)).Seconds())
		}
	})
	return m
}

// RecordPhase accounts one completed traversal phase: hops adds to
// the phase's hop counter, and the mean per-hop latency (d/hops) is
// observed into the phase's hop-latency histogram.
func (m *Metrics) RecordPhase(phase string, hops int, d time.Duration) {
	if m == nil {
		return
	}
	c, h := m.hops[phase], m.hopLat[phase]
	if c == nil {
		c = m.Registry.Counter(SeriesHops, "", "phase", phase)
		h = m.Registry.Histogram(SeriesHopLatency, "", nil, "phase", phase)
	}
	if hops > 0 {
		c.Add(float64(hops))
		h.Observe(d.Seconds() / float64(hops))
	}
}

// TopologyEvent counts one peer lifecycle event (join, leave, crash,
// recover, balance).
func (m *Metrics) TopologyEvent(event string) {
	if m == nil {
		return
	}
	c := m.topo[event]
	if c == nil {
		c = m.Registry.Counter(SeriesTopologyEvents, "", "event", event)
	}
	c.Inc()
}

// MarkReplicated stamps the completion of a replication tick; the
// replication-lag gauge reads seconds-since at scrape time.
func (m *Metrics) MarkReplicated() {
	if m == nil {
		return
	}
	m.lastReplicate.Store(time.Now().UnixNano())
}

// MarkSnapshot records one completed durable snapshot: how long the
// cluster write lock was held for the capture + journal rotation, and
// the encoded size and entry count written off-lock.
func (m *Metrics) MarkSnapshot(stall time.Duration, bytes, keys int) {
	if m == nil {
		return
	}
	m.SnapshotStall.Set(stall.Seconds())
	m.SnapshotBytes.Set(float64(bytes))
	m.SnapshotKeys.Set(float64(keys))
}

// MarkApplied stamps one applied APPLY-stream mutation and its
// sequence number.
func (m *Metrics) MarkApplied(seq uint64) {
	if m == nil {
		return
	}
	m.lastApply.Store(time.Now().UnixNano())
	m.ApplySeq.Set(float64(seq))
}

// MarkEpoch stamps the steward epoch this daemon currently honors.
func (m *Metrics) MarkEpoch(epoch uint64) {
	if m == nil {
		return
	}
	m.Epoch.Set(float64(epoch))
}

// ElectionEvent counts one steward-election event (started, won,
// lost, deposed).
func (m *Metrics) ElectionEvent(event string) {
	if m == nil {
		return
	}
	c := m.elections[event]
	if c == nil {
		c = m.Registry.Counter(SeriesElections, "", "event", event)
	}
	c.Inc()
}

// MirrorRepair counts one repair a steward starts for a member whose
// mirror is out of step: kind is the payload, "records" (apply-log
// tail) or "image" (the whole overlay).
func (m *Metrics) MirrorRepair(kind string) {
	if m == nil {
		return
	}
	m.repairs[kind].Inc()
}

// ObserveFailover records one completed steward failover's duration.
func (m *Metrics) ObserveFailover(d time.Duration) {
	if m == nil {
		return
	}
	m.FailoverDuration.Observe(d.Seconds())
}
