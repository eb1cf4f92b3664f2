// Package lb implements the load-balancing strategies of RR-6557
// Section 3.3 and Section 4:
//
//   - MLT (Max Local Throughput), the paper's contribution: at the end
//     of each time unit a peer S and its predecessor P redistribute
//     the tree nodes they host by moving P along the ring so that the
//     pairwise throughput min(L_S,C_S)+min(L_P,C_P) predicted from the
//     last unit's per-node loads is maximised.
//   - KC, the adaptation of Ledlie & Seltzer's k-choices: a joining
//     peer evaluates k candidate ring positions and takes the one
//     yielding the best local balance.
//   - EqualLoad, an ablation in the spirit of Karger & Ruhl's item
//     balancing: the same boundary move as MLT but equalising loads
//     while ignoring the heterogeneous capacities.
//   - NoLB, the baseline.
package lb

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"dlpt/internal/core"
	"dlpt/internal/keys"
)

// Strategy is a load-balancing policy plugged into the simulation.
type Strategy interface {
	// Name identifies the strategy in reports ("MLT", "KC", ...).
	Name() string
	// Periodic runs the end-of-unit balancing step for peer s (paired
	// with its predecessor). It reports whether a boundary move was
	// applied.
	Periodic(net *core.Network, s keys.Key) (bool, error)
	// PlaceJoin chooses the ring identifier for a peer about to join
	// with the given capacity.
	PlaceJoin(net *core.Network, r *rand.Rand, capacity int) keys.Key
}

// randomID draws a fresh peer identifier not colliding with existing
// peers or tree nodes.
func randomID(net *core.Network, r *rand.Rand) keys.Key {
	for {
		id := net.Alphabet.RandomKey(r, 12, 12)
		if _, exists := net.Peer(id); !exists && !net.HasNode(id) {
			return id
		}
	}
}

// --- NoLB --------------------------------------------------------------------

// NoLB is the no-load-balancing baseline.
type NoLB struct{}

// Name implements Strategy.
func (NoLB) Name() string { return "NoLB" }

// Periodic implements Strategy (no-op).
func (NoLB) Periodic(*core.Network, keys.Key) (bool, error) { return false, nil }

// PlaceJoin implements Strategy with a uniformly random identifier.
func (NoLB) PlaceJoin(net *core.Network, r *rand.Rand, _ int) keys.Key {
	return randomID(net, r)
}

// --- boundary scan shared by MLT and EqualLoad --------------------------------

// pairState captures the joint node population of a predecessor/
// successor peer pair in circular order.
type pairState struct {
	p, s   *core.Peer
	nodes  []*core.Node // circular key order starting after pred(P)
	prefix []int        // prefix[i] = sum of the previous-unit loads of nodes[0:i]
	split  int          // current boundary: first split nodes are on P
}

// circularSort orders ns by key, ascending from just after anchor on the
// circular key space: keys above anchor first, then wrapped keys.
func circularSort(ns []*core.Node, anchor keys.Key) {
	slices.SortFunc(ns, func(a, b *core.Node) int { return cmp.Compare(a.Key, b.Key) })
	// Rotate left by i, in three reversals: the keys at or below anchor
	// go to the end.
	i := sort.Search(len(ns), func(i int) bool { return ns[i].Key > anchor })
	slices.Reverse(ns[:i])
	slices.Reverse(ns[i:])
	slices.Reverse(ns)
}

// gatherPair collects the pair (pred(S), S) node population. It
// returns false when the pair is degenerate (fewer than two peers or
// fewer than two nodes) or when sID no longer names a peer — a
// balancing move earlier in the same round may have renamed it, which
// callers iterating a snapshot of peer ids must tolerate.
func gatherPair(net *core.Network, sID keys.Key) (*pairState, bool, error) {
	s, ok := net.Peer(sID)
	if !ok {
		return nil, false, nil
	}
	if s.Pred == s.ID {
		return nil, false, nil // single peer
	}
	p, ok := net.Peer(s.Pred)
	if !ok {
		return nil, false, fmt.Errorf("lb: broken pred link %q -> %q", sID, s.Pred)
	}
	st := &pairState{p: p, s: s, nodes: slices.Concat(p.Nodes(), s.Nodes()), split: p.NumNodes()}
	if len(st.nodes) < 2 {
		return nil, false, nil
	}
	circularSort(st.nodes, p.Pred)
	st.prefix = make([]int, len(st.nodes)+1)
	for i, n := range st.nodes {
		st.prefix[i+1] = st.prefix[i] + n.LoadPrev
	}
	return st, true, nil
}

// throughputAt returns the predicted pair throughput for boundary j
// (P hosting the first j nodes): min(L_P,C_P) + min(L_S,C_S).
func (st *pairState) throughputAt(j int) int {
	lp := st.prefix[j]
	ls := st.prefix[len(st.nodes)] - lp
	tp := lp
	if st.p.Capacity < tp {
		tp = st.p.Capacity
	}
	ts := ls
	if st.s.Capacity < ts {
		ts = st.s.Capacity
	}
	return tp + ts
}

// imbalanceAt returns |L_P - L_S| for boundary j (the EqualLoad
// objective, capacity-blind).
func (st *pairState) imbalanceAt(j int) int {
	lp := st.prefix[j]
	ls := st.prefix[len(st.nodes)] - lp
	if lp > ls {
		return lp - ls
	}
	return ls - lp
}

// apply moves the boundary to j: nodes change peers and P takes the
// identifier of the last node it keeps (preserving the mapping rule
// host(n) = lowest peer >= n). j must be in [1, len(nodes)-1].
func (st *pairState) apply(net *core.Network, j int) error {
	if j == st.split {
		return nil
	}
	if j < 1 || j > len(st.nodes)-1 {
		return fmt.Errorf("lb: boundary %d out of range", j)
	}
	newID := st.nodes[j-1].Key
	if _, exists := net.Peer(newID); exists && newID != st.p.ID {
		// The boundary node key collides with an existing peer id
		// (only possible with adversarial identifiers): skip the move
		// rather than break the mapping rule.
		return nil
	}
	if j > st.split {
		for _, n := range st.nodes[st.split:j] {
			if err := net.MoveNode(n.Key, st.s.ID, st.p.ID); err != nil {
				return err
			}
		}
	} else {
		for _, n := range st.nodes[j:st.split] {
			if err := net.MoveNode(n.Key, st.p.ID, st.s.ID); err != nil {
				return err
			}
		}
	}
	return net.RenamePeer(st.p.ID, newID)
}

// --- MLT ----------------------------------------------------------------------

// MLT is the paper's Max Local Throughput heuristic (Section 3.3).
type MLT struct{}

// Name implements Strategy.
func (MLT) Name() string { return "MLT" }

// PlaceJoin implements Strategy with a uniformly random identifier
// (MLT balances periodically, not at join time).
func (MLT) PlaceJoin(net *core.Network, r *rand.Rand, _ int) keys.Key {
	return randomID(net, r)
}

// Periodic implements Strategy: scan the |ν_S ∪ ν_P|-1 candidate
// boundaries and apply the throughput-maximising one. The scan is
// O(|ν_S ∪ ν_P|) as stated in the paper. A pair where neither peer is
// saturated (L_P ≤ C_P and L_S ≤ C_S) is skipped before the scan, and
// the skip is exact: the current split already scores L_P + L_S, which
// bounds every split, and a move needs a strict gain. Summing the two
// loads sorts and allocates nothing.
func (MLT) Periodic(net *core.Network, sID keys.Key) (bool, error) {
	if s, ok := net.Peer(sID); ok && s.Pred != s.ID {
		if p, ok := net.Peer(s.Pred); ok && p.LoadPrev() <= p.Capacity && s.LoadPrev() <= s.Capacity {
			return false, nil
		}
	}
	st, ok, err := gatherPair(net, sID)
	if err != nil || !ok {
		return false, err
	}
	best, bestThr := st.split, st.throughputAt(st.split)
	for j := 1; j <= len(st.nodes)-1; j++ {
		if thr := st.throughputAt(j); thr > bestThr {
			best, bestThr = j, thr
		}
	}
	if best == st.split {
		return false, nil
	}
	return true, st.apply(net, best)
}

// --- EqualLoad (ablation) ------------------------------------------------------

// EqualLoad performs the same boundary move as MLT but minimises
// |L_P - L_S|, ignoring peer capacities — the behaviour of classic
// DHT item balancing under heterogeneous peers. It exists to quantify
// the value of MLT's throughput objective (experiments.AblationObjective).
type EqualLoad struct{}

// Name implements Strategy.
func (EqualLoad) Name() string { return "EqualLoad" }

// PlaceJoin implements Strategy with a uniformly random identifier.
func (EqualLoad) PlaceJoin(net *core.Network, r *rand.Rand, _ int) keys.Key {
	return randomID(net, r)
}

// Periodic implements Strategy.
func (EqualLoad) Periodic(net *core.Network, sID keys.Key) (bool, error) {
	st, ok, err := gatherPair(net, sID)
	if err != nil || !ok {
		return false, err
	}
	best, bestImb := st.split, st.imbalanceAt(st.split)
	for j := 1; j <= len(st.nodes)-1; j++ {
		if imb := st.imbalanceAt(j); imb < bestImb {
			best, bestImb = j, imb
		}
	}
	if best == st.split {
		return false, nil
	}
	return true, st.apply(net, best)
}

// --- KC (k-choices) -------------------------------------------------------------

// KChoices adapts Ledlie & Seltzer's k-choices algorithm: each
// joining peer draws K candidate identifiers, predicts the local
// pairwise throughput obtained by joining at each, and picks the
// best. Balancing happens only at join time (hence its strength on
// dynamic networks, Section 4).
type KChoices struct {
	// K is the number of candidate positions (the paper uses k = 4).
	K int
}

// Name implements Strategy.
func (kc KChoices) Name() string { return "KC" }

// Periodic implements Strategy (KC acts at joins only).
func (KChoices) Periodic(*core.Network, keys.Key) (bool, error) { return false, nil }

// PlaceJoin implements Strategy: evaluate K random positions.
func (kc KChoices) PlaceJoin(net *core.Network, r *rand.Rand, capacity int) keys.Key {
	k := kc.K
	if k < 1 {
		k = 4
	}
	var bestID keys.Key
	bestThr := -1
	for i := 0; i < k; i++ {
		id := randomID(net, r)
		thr := kc.score(net, id, capacity)
		if thr > bestThr {
			bestID, bestThr = id, thr
		}
	}
	return bestID
}

// score predicts the pairwise throughput of the would-be split: the
// candidate takes over the nodes of its successor Q lying at or below
// the candidate position.
func (kc KChoices) score(net *core.Network, id keys.Key, capacity int) int {
	qid, ok := net.Ring().HostOf(id)
	if !ok {
		return 0
	}
	q, ok := net.Peer(qid)
	if !ok {
		return 0
	}
	lNew, lQ := 0, 0
	for _, n := range q.Nodes() {
		if keys.BetweenRightIncl(n.Key, q.Pred, id) {
			lNew += n.LoadPrev
		} else {
			lQ += n.LoadPrev
		}
	}
	tNew := lNew
	if capacity < tNew {
		tNew = capacity
	}
	tQ := lQ
	if q.Capacity < tQ {
		tQ = q.Capacity
	}
	return tNew + tQ
}

// --- Directory (semi-centralized, Godfrey et al.) -----------------------------

// Directory adapts the semi-centralized scheme of Godfrey et al.
// (INFOCOM 2004) that Section 5 discusses: an elected directory peer
// gathers (load, capacity) reports from a sample of the peers and
// schedules local boundary moves only where they matter most. Here
// the lowest-id peer is the director; each round it samples every
// Stride-th peer (partial knowledge) and triggers the MLT boundary
// move on the Moves most-overloaded sampled peers. The paper's
// critique — the semi-centralized fashion — shows up as the director
// being a single coordination point; the benefit is far fewer
// balancing actions per unit (measured by the ablation benches).
type Directory struct {
	// Stride samples every Stride-th peer (default 2).
	Stride int
	// Moves bounds the boundary moves triggered per round (default 4).
	Moves int
}

// Name implements Strategy.
func (Directory) Name() string { return "Directory" }

// PlaceJoin implements Strategy with a uniformly random identifier.
func (Directory) PlaceJoin(net *core.Network, r *rand.Rand, _ int) keys.Key {
	return randomID(net, r)
}

// Periodic implements Strategy: only the elected (lowest-id) peer
// acts; it ranks the sampled peers by overload and dispatches MLT
// steps to the worst ones.
func (d Directory) Periodic(net *core.Network, s keys.Key) (bool, error) {
	ids := net.Ring().IDs()
	if len(ids) == 0 || ids[0] != s {
		return false, nil // not the director (or director renamed)
	}
	stride := d.Stride
	if stride < 1 {
		stride = 2
	}
	moves := d.Moves
	if moves < 1 {
		moves = 4
	}
	type report struct {
		id       keys.Key
		overload float64
	}
	var reports []report
	for i := 0; i < len(ids); i += stride {
		p, ok := net.Peer(ids[i])
		if !ok {
			continue
		}
		reports = append(reports, report{
			id:       ids[i],
			overload: float64(p.LoadPrev()) / float64(p.Capacity),
		})
	}
	sort.Slice(reports, func(a, b int) bool { return reports[a].overload > reports[b].overload })
	movedAny := false
	for i := 0; i < len(reports) && i < moves; i++ {
		moved, err := (MLT{}).Periodic(net, reports[i].id)
		if err != nil {
			return movedAny, err
		}
		movedAny = movedAny || moved
	}
	return movedAny, nil
}

// RunRound runs one end-of-unit balancing round: Periodic for every
// peer of a snapshot of the ring, in ring order, counting the applied
// boundary moves. Peers renamed by earlier moves in the same round
// are skipped (gatherPair tolerates vanished ids). It is the
// engine-portable balancing step of the membership subsystem.
func RunRound(net *core.Network, s Strategy) (int, error) {
	moves := 0
	for _, id := range net.PeerIDs() {
		moved, err := s.Periodic(net, id)
		if err != nil {
			return moves, err
		}
		if moved {
			moves++
		}
	}
	// Boundary moves and renames changed node hosting: the affected
	// replica sets follow their hosts' new successors, paid as
	// replication transfer traffic. A round that moved nothing changed
	// no host and no successor.
	if moves > 0 {
		net.RehomeReplicas()
	}
	return moves, nil
}

// ByName returns the strategy with the given name ("MLT", "KC",
// "EqualLoad", "Directory", "NoLB"); the KC variant uses k=4 as in
// the paper.
func ByName(name string) (Strategy, error) {
	switch name {
	case "MLT", "mlt":
		return MLT{}, nil
	case "KC", "kc":
		return KChoices{K: 4}, nil
	case "EqualLoad", "equalload":
		return EqualLoad{}, nil
	case "Directory", "directory":
		return Directory{}, nil
	case "NoLB", "nolb", "none", "":
		return NoLB{}, nil
	}
	return nil, fmt.Errorf("lb: unknown strategy %q", name)
}
