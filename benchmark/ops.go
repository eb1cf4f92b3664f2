package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"dlpt/internal/keys"
	"dlpt/internal/workload"
)

// endpoint is the one value every key is registered under.
const endpoint = "ep"

// opClass names what one generated operation does. The classes are the
// unit of latency accounting: each has its own histogram per client
// and slice.
type opClass uint8

const (
	opDiscover   opClass = iota // Registry.Discover of one name
	opRegister                  // Register of a currently absent versioned key
	opUnregister                // Unregister of a key registered earlier
	opLimit10                   // Complete(prefix, 10), drained
	opScan                      // unlimited CompleteSeq/RangeSeq, drained
	opFirst                     // unlimited CompleteSeq abandoned after the first key
	numClasses
)

var classNames = [numClasses]string{"discover", "register", "unregister", "limit10", "scan", "first"}

// op is one pre-generated operation together with the answer the model
// expects, so the timed loop only compares.
type op struct {
	class opClass
	// key is the name for discover/register/unregister and the prefix
	// for limit10/first/scan-by-prefix; a scan with hi != "" is the
	// range [key, hi].
	key, hi string
	// found is the expected Discover outcome. count, first and last
	// describe the expected result list of limit10/scan/first.
	found       bool
	count       int
	first, last string
	// dyn is the index of the versioned key a register/unregister
	// touches (its slot in the writer's live table).
	dyn int
}

// model is the reference the program's answers are checked against:
// the sorted static catalogue. Versioned keys are tracked by the writer
// that owns them; they never match a reader's lookup or limit-10
// completion, and a scan that meets one skips it (listResult.add).
type model struct {
	sorted []string // static keys, ascending
}

func newModel(corpus []keys.Key) *model {
	m := &model{sorted: make([]string, len(corpus))}
	for i, k := range corpus {
		m.sorted[i] = string(k)
	}
	sort.Strings(m.sorted)
	return m
}

// prefixRange returns the half-open index range of static keys
// extending prefix.
func (m *model) prefixRange(prefix string) (lo, hi int) {
	lo = sort.SearchStrings(m.sorted, prefix)
	hi = lo + sort.Search(len(m.sorted)-lo, func(i int) bool {
		return !strings.HasPrefix(m.sorted[lo+i], prefix)
	})
	return lo, hi
}

// expectList fills o's expected result list from the static keys in
// [lo, hi), truncated to limit when limit > 0.
func (m *model) expectList(o *op, lo, hi, limit int) {
	if limit > 0 && hi-lo > limit {
		hi = lo + limit
	}
	o.count = hi - lo
	if o.count > 0 {
		o.first, o.last = m.sorted[lo], m.sorted[hi-1]
	}
}

// versionedMark is in every key a writer registers and in no key of
// the static catalogue.
const versionedMark = "_0w"

func isVersioned(k string) bool { return strings.Contains(k, versionedMark) }

var versionSuffix = regexp.MustCompile(`_v[0-9]+$`)

// baseName strips the "_v<n>" suffix workload.GridCorpus appends.
func baseName(k string) string { return versionSuffix.ReplaceAllString(k, "") }

// generator derives every input of a run from the seed: the same seed
// gives the same corpus, op streams and expectations.
type generator struct {
	seed   int64
	corpus []keys.Key
	m      *model
	// scanPrefixes and scanRanges are the class (a) candidates: every
	// prefix, and a set of index ranges, matching 200..4000 static
	// keys (scaled down with the corpus in -quick).
	scanPrefixes []string
	scanRanges   [][2]int
}

func newGenerator(seed int64, nkeys int) *generator {
	g := &generator{seed: seed, corpus: workload.GridCorpus(nkeys)}
	g.m = newModel(g.corpus)
	minScan, maxScan := 200, 4000
	if nkeys < 4000 {
		minScan, maxScan = nkeys/25, nkeys/2
	}
	seen := map[string]bool{}
	for _, k := range g.m.sorted {
		for n := 1; n <= 4 && n <= len(k); n++ {
			p := k[:n]
			if seen[p] {
				continue
			}
			seen[p] = true
			if lo, hi := g.m.prefixRange(p); hi-lo >= minScan && hi-lo <= maxScan {
				g.scanPrefixes = append(g.scanPrefixes, p)
			}
		}
	}
	sort.Strings(g.scanPrefixes)
	// The candidate ranges are the same whatever the seed: the seed
	// picks among them, so two seeds scan the same amount on average
	// and differ in order, not in work.
	r := rand.New(rand.NewSource(64))
	for len(g.scanRanges) < 64 {
		span := minScan + r.Intn(maxScan-minScan+1)
		lo := r.Intn(len(g.m.sorted) - span)
		g.scanRanges = append(g.scanRanges, [2]int{lo, lo + span})
	}
	return g
}

// rng returns an independent seeded stream for one named purpose.
func (g *generator) rng(purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", g.seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// absentShare of lookups target names that were never registered, so
// the miss path is exercised and checked.
const absentShare = 0.05

func (g *generator) discoverOp(r *rand.Rand, k keys.Key) op {
	if r.Float64() < absentShare {
		return op{class: opDiscover, key: string(k) + "_x"}
	}
	return op{class: opDiscover, key: string(k), found: true}
}

// limit10Op completes base(k)+"_v": the versions of one routine. The
// versioned keys writers register use "_0w", so they never extend such
// a prefix and the expectation stays exact beside concurrent writes.
func (g *generator) limit10Op(k keys.Key) op {
	o := op{class: opLimit10, key: baseName(string(k)) + "_v"}
	lo, hi := g.m.prefixRange(o.key)
	g.m.expectList(&o, lo, hi, 10)
	return o
}

func (g *generator) scanOp(r *rand.Rand, byRange bool, class opClass) op {
	o := op{class: class}
	var lo, hi int
	if byRange {
		rg := g.scanRanges[r.Intn(len(g.scanRanges))]
		lo, hi = rg[0], rg[1]
		o.key, o.hi = g.m.sorted[lo], g.m.sorted[hi-1]
	} else {
		o.key = g.scanPrefixes[r.Intn(len(g.scanPrefixes))]
		lo, hi = g.m.prefixRange(o.key)
	}
	limit := 0
	if class == opFirst {
		limit = 1 // the consumer leaves after the first key
	}
	g.m.expectList(&o, lo, hi, limit)
	return o
}

// lookupStream is 100% Discover over uniformly picked keys.
func (g *generator) lookupStream(client, n int) []op {
	r := g.rng("lookup/" + strconv.Itoa(client))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.discoverOp(r, workload.Uniform{}.Pick(r, g.corpus, 0))
	}
	return ops
}

// scanStream is the fixed rotation (a) drained unlimited scan,
// alternating completion and range; (b) limit-10 completion; (c)
// unlimited completion abandoned after its first key.
func (g *generator) scanStream(client, n int) []op {
	r := g.rng("scan/" + strconv.Itoa(client))
	ops := make([]op, n)
	for i := range ops {
		switch i % 3 {
		case 0:
			ops[i] = g.scanOp(r, (i/3)%2 == 1, opScan)
		case 1:
			ops[i] = g.limit10Op(g.corpus[r.Intn(len(g.corpus))])
		default:
			ops[i] = g.scanOp(r, false, opFirst)
		}
	}
	return ops
}

// hotspotUnits is the time span of workload.Figure8Schedule: one pass
// over a reader stream walks t from 0 to 160.
const hotspotUnits = 160

// readerStream mixes Discover and limit-10 completion (limitShare of
// the ops) over keys picked by the Figure 8 hot-spot schedule, with t
// derived from the op index.
func (g *generator) readerStream(purpose string, n int, limitShare float64, hotspot bool) []op {
	r := g.rng(purpose)
	var pick workload.Picker = workload.Uniform{}
	if hotspot {
		pick = workload.Figure8Schedule()
	}
	ops := make([]op, n)
	for i := range ops {
		k := pick.Pick(r, g.corpus, i*hotspotUnits/n)
		if r.Float64() < limitShare {
			ops[i] = g.limit10Op(k)
		} else {
			ops[i] = g.discoverOp(r, k)
		}
	}
	return ops
}

// writerLag is how many versioned keys stay registered: the writer
// registers writerLag keys, then alternates unregistering the oldest
// and registering the next, so the catalogue stays at its preloaded
// size plus writerLag.
const writerLag = 64

// writerStream is the cyclic register/unregister sequence over n/2
// versioned key slots (n even and well above 2*writerLag), named
// <routine>_0w<tag><slot> so that writers with different tags never
// touch each other's keys. Replaying
// it in a loop keeps every register targeting an absent key and every
// unregister a present one: one pass ends with the newest writerLag
// slots registered, the next pass's prologue is skipped by the caller
// via writerStart.
func (g *generator) writerStream(tag string, n int) []op {
	r := g.rng("writer/" + tag)
	slots := n / 2
	names := make([]string, slots)
	for i := range names {
		names[i] = baseName(string(g.corpus[r.Intn(len(g.corpus))])) + versionedMark + tag + strconv.Itoa(i)
	}
	ops := make([]op, 0, n)
	for i := 0; i < slots; i++ {
		ops = append(ops,
			op{class: opUnregister, key: names[(i+slots-writerLag)%slots], dyn: (i + slots - writerLag) % slots},
			op{class: opRegister, key: names[i], dyn: i})
	}
	return ops
}

// writerPrologue registers the writerLag slots the cyclic stream
// expects to find: the last writerLag register ops of the stream.
func writerPrologue(stream []op) []op {
	var out []op
	for _, o := range stream[len(stream)-2*writerLag:] {
		if o.class == opRegister {
			out = append(out, o)
		}
	}
	return out
}

// probeStream is n read operations of one class for client's side of a
// post-window probe (and for the per-layer suite).
func (g *generator) probeStream(class opClass, client, n int) []op {
	r := g.rng("probe/" + classNames[class] + "/" + strconv.Itoa(client))
	ops := make([]op, n)
	for i := range ops {
		switch class {
		case opDiscover:
			ops[i] = g.discoverOp(r, g.corpus[r.Intn(len(g.corpus))])
		case opLimit10:
			ops[i] = g.limit10Op(g.corpus[r.Intn(len(g.corpus))])
		case opScan:
			ops[i] = g.scanOp(r, i%2 == 1, opScan)
		}
	}
	return ops
}
