package core

import (
	"slices"
	"sort"

	"dlpt/internal/catalog"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
)

// Copy-on-write catalogue image. A durable overlay snapshots its
// catalogue once per replication tick; walking every node under the
// cluster write lock would stall writers for a time proportional to the
// catalogue. Instead the network keeps a chunked, sorted image of the
// data catalogue, maintained from the journal funnel (every successful
// register/unregister), which CaptureSnapshot freezes in O(1); a
// mutation after a capture clones only the chunks it touches (writable).
// A Recover pass that declares keys lost, the one change that bypasses
// the funnel, drops the image; the next capture rebuilds it.

// catChunkMax bounds a chunk; a full chunk splits in half, so chunks
// hold between catChunkMax/2 and catChunkMax entries (except the
// last survivor of deletions).
const catChunkMax = 128

// catChunk is one sorted run of catalogue entries. epoch records the
// image epoch the chunk was made writable in: a chunk from an older
// epoch may be referenced by a capture and must be cloned before
// mutation.
type catChunk struct {
	epoch uint64
	keys  []keys.Key
	vals  [][]string // aligned with keys; each ascending
}

// catImage is the incrementally-maintained catalogue: ordered,
// non-overlapping, non-empty chunks.
type catImage struct {
	chunks []*catChunk
	nkeys  int
	// shared marks the chunk list itself as referenced by a capture;
	// epoch freezes the chunks (see writable).
	shared bool
	epoch  uint64
}

// CatalogueCapture is an immutable point-in-time view of the data
// catalogue: the epoch-consistent state CaptureSnapshot froze under
// the cluster lock, safe to encode and fsync after the lock is
// released. It implements persist.EntrySource.
type CatalogueCapture struct {
	chunks []*catChunk
	nkeys  int
}

// Len returns the number of catalogue entries captured.
func (c *CatalogueCapture) Len() int { return c.nkeys }

// Ascend yields the captured entries in ascending key order. The
// yielded slices are shared with the capture and must not be
// mutated.
func (c *CatalogueCapture) Ascend(yield func(catalog.Entry) bool) {
	for _, ch := range c.chunks {
		for i, k := range ch.keys {
			if !yield(catalog.Entry{Key: string(k), Values: ch.vals[i]}) {
				return
			}
		}
	}
}

var _ persist.EntrySource = (*CatalogueCapture)(nil)

// CaptureSnapshot freezes the current peer list and catalogue: the
// whole-overlay state a durable snapshot writes and a steward sends a
// joining daemon. For a snapshot it must run under the same critical
// section as the store's BeginSnapshot so the journal rotation is
// atomic with the captured state. On a journaled network the cost is
// O(peers) + O(1) on the catalogue — independent of the catalogue
// size once the image exists (the first capture after a restore or a
// lossy recovery rebuilds it). A network with no journal captures
// rarely (a store-less steward, once per join), so it builds the
// image for the capture alone and keeps nothing to maintain.
func (net *Network) CaptureSnapshot() ([]persist.PeerState, *CatalogueCapture) {
	if net.cat == nil {
		net.cat = net.buildCatImage()
	}
	img := net.cat
	img.shared = true
	img.epoch++
	if net.Journal == nil {
		net.cat = nil
	}
	return net.RingState(), &CatalogueCapture{chunks: img.chunks, nkeys: img.nkeys}
}

// RingState returns the ring as a store records it: the ids with their
// capacities, in ring order, in a fresh slice.
func (net *Network) RingState() []persist.PeerState {
	ids := net.ring.IDs()
	peers := make([]persist.PeerState, 0, len(ids))
	for _, id := range ids {
		peers = append(peers, persist.PeerState{ID: string(id), Capacity: net.peers[id].Capacity})
	}
	return peers
}

// CatalogueImaged reports whether the copy-on-write catalogue image is
// current: every catalogue change since the last capture went through
// the journal funnel. It is not after a lossy recovery, nor on a network
// that has not captured yet.
func (net *Network) CatalogueImaged() bool { return net.cat != nil }

// catalogueData collects the durable catalogue: the union of the
// replicated data nodes and the live tree's data nodes, live values
// winning — they are at least as fresh. The union matters on the
// concurrent engines: a registration racing the Replicate tick has
// journaled into the epoch this snapshot supersedes, so the snapshot
// itself must contain it; conversely a crashed, unrecovered node
// exists only in its replica. Keys are returned ascending with values
// ascending per key.
func (net *Network) catalogueData() ([]keys.Key, map[keys.Key][]string) {
	// Only a node lost to a crash contributes its replica: a live node
	// wins below, and a removed one's would resurrect it on restart.
	data := make(map[keys.Key][]string, len(net.nodeList))
	for k := range net.pendingLost {
		if e, ok := net.replicas[k]; ok && !net.HasNode(k) && len(e.Data) > 0 {
			data[k] = e.Data
		}
	}
	for _, n := range net.nodeList {
		if n.HasData() {
			data[n.Key] = slices.Clone(n.Data)
		}
	}
	ks := make([]keys.Key, 0, len(data))
	for k := range data {
		ks = append(ks, k)
	}
	keys.SortKeys(ks)
	return ks, data
}

// buildCatImage materializes the image from the live overlay — the
// one O(n) pass, paid on the first capture and after invalidation.
func (net *Network) buildCatImage() *catImage {
	ks, data := net.catalogueData()
	img := &catImage{nkeys: len(ks)}
	for len(ks) > 0 {
		n := catChunkMax / 2
		if n > len(ks) {
			n = len(ks)
		}
		ch := &catChunk{keys: ks[:n:n], vals: make([][]string, n)}
		for i, k := range ch.keys {
			ch.vals[i] = data[k]
		}
		img.chunks = append(img.chunks, ch)
		ks = ks[n:]
	}
	return img
}

// invalidateCatalogue drops the image; the next capture rebuilds it.
func (net *Network) invalidateCatalogue() { net.cat = nil }

// journalCat folds one successful catalogue mutation into the image.
func (net *Network) journalCat(remove bool, k keys.Key, v string) {
	if net.cat == nil {
		return
	}
	if remove {
		net.cat.remove(k, v)
	} else {
		net.cat.add(k, v)
	}
}

// chunkFor locates the chunk that holds, or would hold, key k.
func (img *catImage) chunkFor(k keys.Key) int {
	i := sort.Search(len(img.chunks), func(i int) bool {
		return img.chunks[i].keys[0] > k
	})
	if i > 0 {
		return i - 1
	}
	return 0
}

// writable returns chunk i ready for in-place mutation, cloning the
// chunk list and/or the chunk if a capture still references them.
// The value slices inside are NOT made private: a value mutation must
// replace the inner slice wholesale.
func (img *catImage) writable(i int) *catChunk {
	if img.shared {
		img.chunks = append([]*catChunk(nil), img.chunks...)
		img.shared = false
	}
	ch := img.chunks[i]
	if ch.epoch != img.epoch {
		ch = &catChunk{
			epoch: img.epoch,
			keys:  append([]keys.Key(nil), ch.keys...),
			vals:  append([][]string(nil), ch.vals...),
		}
		img.chunks[i] = ch
	}
	return ch
}

func (img *catImage) add(k keys.Key, v string) {
	if len(img.chunks) == 0 {
		img.chunks = []*catChunk{{epoch: img.epoch, keys: []keys.Key{k}, vals: [][]string{{v}}}}
		img.shared = false
		img.nkeys = 1
		return
	}
	ci := img.chunkFor(k)
	ch := img.chunks[ci]
	j := sort.Search(len(ch.keys), func(i int) bool { return ch.keys[i] >= k })
	if j < len(ch.keys) && ch.keys[j] == k {
		nv, changed := insertValue(ch.vals[j], v)
		if !changed {
			return
		}
		ch = img.writable(ci)
		ch.vals[j] = nv
		return
	}
	ch = img.writable(ci)
	ch.keys = slices.Insert(ch.keys, j, k)
	ch.vals = slices.Insert(ch.vals, j, []string{v})
	img.nkeys++
	if len(ch.keys) > catChunkMax {
		img.split(ci)
	}
}

func (img *catImage) remove(k keys.Key, v string) {
	if len(img.chunks) == 0 {
		return
	}
	ci := img.chunkFor(k)
	ch := img.chunks[ci]
	j := sort.Search(len(ch.keys), func(i int) bool { return ch.keys[i] >= k })
	if j >= len(ch.keys) || ch.keys[j] != k {
		return
	}
	nv, changed := removeValue(ch.vals[j], v)
	if !changed {
		return
	}
	ch = img.writable(ci)
	if len(nv) > 0 {
		ch.vals[j] = nv
		return
	}
	ch.keys = append(ch.keys[:j], ch.keys[j+1:]...)
	ch.vals = append(ch.vals[:j], ch.vals[j+1:]...)
	img.nkeys--
	if len(ch.keys) == 0 {
		img.chunks = append(img.chunks[:ci], img.chunks[ci+1:]...)
	}
}

// split halves an over-full chunk (the chunk list is already private
// — split is only reached from add after writable).
func (img *catImage) split(ci int) {
	ch := img.chunks[ci]
	half := len(ch.keys) / 2
	right := &catChunk{
		epoch: img.epoch,
		keys:  append([]keys.Key(nil), ch.keys[half:]...),
		vals:  append([][]string(nil), ch.vals[half:]...),
	}
	ch.keys = ch.keys[:half:half]
	ch.vals = ch.vals[:half:half]
	img.chunks = append(img.chunks, nil)
	copy(img.chunks[ci+2:], img.chunks[ci+1:])
	img.chunks[ci+1] = right
}

// insertValue returns vals with v inserted in order; changed is false
// when v was already present. The result is always a fresh slice when
// changed — captured views may share the old one.
func insertValue(vals []string, v string) ([]string, bool) {
	j, found := slices.BinarySearch(vals, v)
	if found {
		return vals, false
	}
	return slices.Insert(slices.Clip(vals), j, v), true
}

// removeValue returns vals without v; changed is false when v was
// absent. The result is a fresh slice when changed.
func removeValue(vals []string, v string) ([]string, bool) {
	j, found := slices.BinarySearch(vals, v)
	if !found {
		return vals, false
	}
	return slices.Concat(vals[:j], vals[j+1:]), true
}
