// Package pgrid implements P-Grid (Aberer et al.; Datta, Hauswirth,
// John, Schmidt, Aberer, "Range queries in trie-structured overlays",
// P2P 2005), the second trie-structured comparator of Table 2.
//
// P-Grid partitions the binary key space into a prefix-free set of
// paths; each peer is responsible for one path (possibly replicated)
// and keeps, for every bit of its path, references to peers on the
// other side of that split. Queries resolve one bit per hop:
// O(log |Π|) routing with |Π| key-space partitions.
//
// The package constructs the *converged* state of the exchange-based
// P-Grid protocol directly, in place of running the exchanges:
// the partition trie is built by splitting while partitions overflow
// and peers remain, then peers are assigned and routing tables drawn
// randomly among the correct candidates.
package pgrid

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dlpt/internal/keys"
)

// Peer is one P-Grid peer.
type Peer struct {
	Name string
	// Path is the binary partition this peer is responsible for.
	Path string
	// Refs[i] holds names of peers whose path agrees with Path on the
	// first i bits and differs at bit i.
	Refs [][]string
	// Keys are the stored keys of the partition (replicated across
	// the partition's peers).
	Keys map[keys.Key]bool
}

// Counters tracks query traffic.
type Counters struct {
	Queries     int
	RoutingHops int
}

// Grid is a converged P-Grid overlay.
type Grid struct {
	Counters Counters

	d      int
	peers  map[string]*Peer
	leaves []string            // sorted partition paths
	byPath map[string][]string // path -> peer names
	rng    *rand.Rand
}

// Config parameterizes construction.
type Config struct {
	// D is the key bit length.
	D int
	// MaxKeysPerLeaf stops splitting once a partition fits.
	MaxKeysPerLeaf int
	// RefsPerLevel is the number of references kept per path bit.
	RefsPerLevel int
}

// Build constructs the converged grid for the given peers and keys.
func Build(cfg Config, peerNames []string, ks []keys.Key, rng *rand.Rand) (*Grid, error) {
	if cfg.D < 1 {
		return nil, fmt.Errorf("pgrid: D = %d", cfg.D)
	}
	if cfg.MaxKeysPerLeaf < 1 {
		cfg.MaxKeysPerLeaf = 1
	}
	if cfg.RefsPerLevel < 1 {
		cfg.RefsPerLevel = 2
	}
	if len(peerNames) == 0 {
		return nil, fmt.Errorf("pgrid: no peers")
	}
	g := &Grid{
		d:      cfg.D,
		peers:  make(map[string]*Peer),
		byPath: make(map[string][]string),
		rng:    rng,
	}
	// Bucket keys by bit encoding.
	enc := make(map[keys.Key]string, len(ks))
	for _, k := range ks {
		enc[k] = keys.Bits(k, cfg.D)
	}
	// Recursive split with a peer budget: both children always exist
	// (the space is fully covered) and each gets at least one peer.
	var split func(prefix string, part []keys.Key, budget int)
	split = func(prefix string, part []keys.Key, budget int) {
		if budget < 2 || len(part) <= cfg.MaxKeysPerLeaf || len(prefix) >= cfg.D {
			g.leaves = append(g.leaves, prefix)
			return
		}
		var zero, one []keys.Key
		for _, k := range part {
			if enc[k][len(prefix)] == '0' {
				zero = append(zero, k)
			} else {
				one = append(one, k)
			}
		}
		b0 := budget * (len(zero) + 1) / (len(part) + 2)
		if b0 < 1 {
			b0 = 1
		}
		if b0 > budget-1 {
			b0 = budget - 1
		}
		split(prefix+"0", zero, b0)
		split(prefix+"1", one, budget-b0)
	}
	split("", ks, len(peerNames))
	sort.Strings(g.leaves)

	// Assign peers to partitions round-robin (extras become replicas).
	for i, name := range peerNames {
		path := g.leaves[i%len(g.leaves)]
		p := &Peer{
			Name: name,
			Path: path,
			Refs: make([][]string, len(path)),
			Keys: make(map[keys.Key]bool),
		}
		if _, dup := g.peers[name]; dup {
			return nil, fmt.Errorf("pgrid: duplicate peer %q", name)
		}
		g.peers[name] = p
		g.byPath[path] = append(g.byPath[path], name)
	}
	// Store keys on their partitions' replicas.
	for _, k := range ks {
		path := g.leafFor(enc[k])
		for _, name := range g.byPath[path] {
			g.peers[name].Keys[k] = true
		}
	}
	// Draw routing references. The peers share one seeded rng, so the
	// draw order must be canonical: iterating the peer map directly
	// would consume rng state in map order and change every peer's
	// references from run to run.
	names := make([]string, 0, len(g.peers))
	for name := range g.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := g.peers[name]
		for i := 0; i < len(p.Path); i++ {
			want := p.Path[:i] + flip(p.Path[i])
			var candidates []string
			for _, path := range g.leaves {
				if strings.HasPrefix(path, want) || strings.HasPrefix(want, path) {
					candidates = append(candidates, g.byPath[path]...)
				}
			}
			sort.Strings(candidates)
			rng.Shuffle(len(candidates), func(a, b int) {
				candidates[a], candidates[b] = candidates[b], candidates[a]
			})
			n := cfg.RefsPerLevel
			if n > len(candidates) {
				n = len(candidates)
			}
			p.Refs[i] = append([]string(nil), candidates[:n]...)
		}
	}
	return g, nil
}

func flip(b byte) string {
	if b == '0' {
		return "1"
	}
	return "0"
}

// leafFor returns the partition path covering the given bit string.
func (g *Grid) leafFor(bits string) string {
	for _, path := range g.leaves {
		if strings.HasPrefix(bits, path) {
			return path
		}
	}
	// Total cover guarantees this cannot happen.
	return g.leaves[len(g.leaves)-1]
}

// NumPartitions returns |Π|.
func (g *Grid) NumPartitions() int { return len(g.leaves) }

// NumPeers returns the number of peers.
func (g *Grid) NumPeers() int { return len(g.peers) }

// Peers returns the peers sorted by name.
func (g *Grid) Peers() []*Peer {
	names := make([]string, 0, len(g.peers))
	for n := range g.peers {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Peer, len(names))
	for i, n := range names {
		out[i] = g.peers[n]
	}
	return out
}

// route walks from peer start towards the partition owning bits,
// resolving at least one bit per hop. It returns the final peer and
// the hop count.
func (g *Grid) route(start *Peer, bits string) (*Peer, int, error) {
	cur := start
	hops := 0
	for !strings.HasPrefix(bits, cur.Path) {
		// First bit where the peer's path disagrees with the target.
		i := 0
		for i < len(cur.Path) && cur.Path[i] == bits[i] {
			i++
		}
		if i >= len(cur.Path) {
			// cur.Path prefixes bits: handled by loop condition.
			break
		}
		refs := cur.Refs[i]
		if len(refs) == 0 {
			return nil, hops, fmt.Errorf("pgrid: peer %q has no refs at level %d", cur.Name, i)
		}
		cur = g.peers[refs[g.rng.Intn(len(refs))]]
		hops++
		if hops > 4*g.d+8 {
			return nil, hops, fmt.Errorf("pgrid: routing did not converge for %q", bits)
		}
	}
	return cur, hops, nil
}

// Lookup reports whether key is stored, routing from a random peer.
func (g *Grid) Lookup(key keys.Key) (bool, int, error) {
	names := g.Peers()
	start := names[g.rng.Intn(len(names))]
	return g.LookupFrom(start, key)
}

// LookupFrom routes the query from the given peer.
func (g *Grid) LookupFrom(start *Peer, key keys.Key) (bool, int, error) {
	bits := keys.Bits(key, g.d)
	dst, hops, err := g.route(start, bits)
	g.Counters.Queries++
	g.Counters.RoutingHops += hops
	if err != nil {
		return false, hops, err
	}
	return dst.Keys[key], hops, nil
}

// Insert routes key to its partition and stores it on every replica.
// The converged partition structure is kept fixed (no dynamic split);
// see the package comment.
func (g *Grid) Insert(key keys.Key) (int, error) {
	bits := keys.Bits(key, g.d)
	names := g.Peers()
	start := names[g.rng.Intn(len(names))]
	dst, hops, err := g.route(start, bits)
	g.Counters.RoutingHops += hops
	if err != nil {
		return hops, err
	}
	for _, name := range g.byPath[dst.Path] {
		g.peers[name].Keys[key] = true
	}
	return hops, nil
}

// Range returns stored keys whose encodings lie in [lo, hi], walking
// the partitions in order from the one owning lo (the trie-order leaf
// traversal of the range-query paper). It also returns the number of
// partition hops performed.
func (g *Grid) Range(lo, hi keys.Key, limit int) ([]keys.Key, int, error) {
	loBits, hiBits := keys.Bits(lo, g.d), keys.Bits(hi, g.d)
	if hiBits < loBits {
		return nil, 0, nil
	}
	startIdx := sort.SearchStrings(g.leaves, loBits)
	if startIdx > 0 {
		// The previous partition may still cover loBits (prefix).
		if strings.HasPrefix(loBits, g.leaves[startIdx-1]) {
			startIdx--
		}
	}
	var out []keys.Key
	hops := 0
	for i := startIdx; i < len(g.leaves); i++ {
		path := g.leaves[i]
		// A partition beginning after hiBits cannot intersect.
		if path > hiBits {
			break
		}
		hops++
		reps := g.byPath[path]
		if len(reps) == 0 {
			continue
		}
		p := g.peers[reps[0]]
		for k := range p.Keys {
			kb := keys.Bits(k, g.d)
			if loBits <= kb && kb <= hiBits {
				out = append(out, k)
			}
		}
	}
	g.Counters.RoutingHops += hops
	sort.Slice(out, func(a, b int) bool {
		return keys.Bits(out[a], g.d) < keys.Bits(out[b], g.d)
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, hops, nil
}

// AvgRoutingState returns the mean number of routing references per
// peer (the "Local State" row of Table 2).
func (g *Grid) AvgRoutingState() float64 {
	total := 0
	for _, p := range g.peers {
		for _, refs := range p.Refs {
			total += len(refs)
		}
	}
	return float64(total) / float64(len(g.peers))
}

// MaxPathLen returns the deepest partition depth (log2 |Π| for a
// balanced grid).
func (g *Grid) MaxPathLen() int {
	m := 0
	for _, path := range g.leaves {
		if len(path) > m {
			m = len(path)
		}
	}
	return m
}

// Validate checks that the partitions form a prefix-free total cover
// of the key space, that every peer's keys match its path, and that
// references point to the correct side of each split.
func (g *Grid) Validate() error {
	// Prefix-free total cover: sum of 2^(d-len(path)) must be 2^d.
	var cover float64
	for i, path := range g.leaves {
		if i > 0 && strings.HasPrefix(path, g.leaves[i-1]) && path != g.leaves[i-1] {
			return fmt.Errorf("pgrid: partition %q nested in %q", path, g.leaves[i-1])
		}
		cover += 1 / float64(uint64(1)<<uint(len(path)))
	}
	if cover < 0.999999 || cover > 1.000001 {
		return fmt.Errorf("pgrid: partitions cover %.6f of the space", cover)
	}
	for _, p := range g.peers {
		for k := range p.Keys {
			if !strings.HasPrefix(keys.Bits(k, g.d), p.Path) {
				return fmt.Errorf("pgrid: key %q misfiled on path %q", k, p.Path)
			}
		}
		for i, refs := range p.Refs {
			want := p.Path[:i] + flip(p.Path[i])
			for _, name := range refs {
				q, ok := g.peers[name]
				if !ok {
					return fmt.Errorf("pgrid: dangling ref %q", name)
				}
				if !strings.HasPrefix(q.Path, want) && !strings.HasPrefix(want, q.Path) {
					return fmt.Errorf("pgrid: ref %q (path %q) wrong for level %d of %q",
						name, q.Path, i, p.Path)
				}
			}
		}
	}
	return nil
}
