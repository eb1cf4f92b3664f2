package catalog

import (
	"errors"
	"fmt"
	"strings"
)

// View is a decoded-but-not-materialized catalogue: it holds the
// envelope bytes (possibly a memory-mapped snapshot region) plus the
// small rank/select directory rebuilt from the LOUDS bitmap, and
// materializes entries only as Ascend walks them — the lazy
// cold-restart path. Keys and values are copied out of the
// underlying bytes as they are produced, so the mapping may be
// released once the walk (or the last walk) returns.
//
// A View is not safe for concurrent use.
type View struct {
	secs Sections

	// Legacy envelopes have no succinct structure to navigate; they
	// decode eagerly into entries and Ascend just replays them.
	eager []Entry

	n      int // trie node count
	m      int // entry count
	louds  *bitvec
	labels []byte  // label of node j is labels[j-1]
	isEnt  *bitvec // entry marks, one bit per node
	valTab []span  // distinct-value table: spans into valRaw
	valRaw []byte
	valStr []string // memoized materialized values
	refs   []byte   // per-entry value references
}

// span is one string's location inside a section's raw bytes.
type span struct{ off, end int }

// NewView opens a full envelope for lazy iteration, dispatching on
// the version byte like Decode.
func NewView(p []byte) (*View, error) {
	c, secs, payload, err := envelope(p)
	if err != nil {
		return nil, err
	}
	if _, lazy := c.(loudsCodec); lazy {
		return viewFromPayload(payload, secs)
	}
	entries, err := c.DecodePayload(payload, secs)
	if err != nil {
		return nil, err
	}
	return &View{secs: secs, eager: entries, m: len(entries)}, nil
}

// viewFromPayload validates a LOUDS payload's structure (counts,
// section bounds, bitmap population) without materializing any
// entry.
func viewFromPayload(p []byte, secs Sections) (*View, error) {
	nu, p, err := Uvarint(p)
	if err != nil {
		return nil, fmt.Errorf("catalog: node count: %w", err)
	}
	if nu == 0 {
		return &View{secs: secs}, nil
	}
	if nu > maxCatalogNodes(p) {
		return nil, errors.New("catalog: implausible node count")
	}
	n := int(nu)
	mu, p, err := Uvarint(p)
	if err != nil {
		return nil, fmt.Errorf("catalog: entry count: %w", err)
	}
	if mu > nu {
		return nil, errors.New("catalog: more entries than trie nodes")
	}
	v := &View{secs: secs, n: n, m: int(mu)}

	bmLen := (2*n - 1 + 7) / 8
	if len(p) < bmLen {
		return nil, errors.New("catalog: truncated LOUDS bitmap")
	}
	v.louds = newBitvec(wordsFromBytes(p[:bmLen], 2*n-1), 2*n-1)
	p = p[bmLen:]
	if v.louds.ones() != n-1 {
		return nil, errors.New("catalog: LOUDS bitmap population mismatch")
	}
	if len(p) < n-1 {
		return nil, errors.New("catalog: truncated label section")
	}
	v.labels = p[:n-1]
	p = p[n-1:]
	entLen := (n + 7) / 8
	if len(p) < entLen {
		return nil, errors.New("catalog: truncated entry bitmap")
	}
	v.isEnt = newBitvec(wordsFromBytes(p[:entLen], n), n)
	p = p[entLen:]
	if v.isEnt.ones() != v.m {
		return nil, errors.New("catalog: entry bitmap population mismatch")
	}

	if secs&SecValues != 0 {
		sec, _, err := getSection(p)
		if err != nil {
			return nil, fmt.Errorf("catalog: value section: %w", err)
		}
		if err := v.indexValueTable(sec); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func getSection(p []byte) ([]byte, []byte, error) {
	n, p, err := Uvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, errors.New("catalog: truncated section")
	}
	return p[:n], p[n:], nil
}

// indexValueTable records the table strings' spans; the strings
// themselves materialize on first reference.
func (v *View) indexValueTable(sec []byte) error {
	cu, rest, err := Uvarint(sec)
	if err != nil {
		return fmt.Errorf("catalog: value table count: %w", err)
	}
	if cu > uint64(len(rest)) {
		return errors.New("catalog: implausible value table count")
	}
	v.valRaw = sec
	v.valTab = make([]span, 0, cu)
	off := len(sec) - len(rest)
	for i := uint64(0); i < cu; i++ {
		lu, after, err := Uvarint(sec[off:])
		if err != nil {
			return fmt.Errorf("catalog: value table string %d: %w", i, err)
		}
		start := len(sec) - len(after)
		if lu > uint64(len(after)) {
			return errors.New("catalog: truncated value table string")
		}
		v.valTab = append(v.valTab, span{start, start + int(lu)})
		off = start + int(lu)
	}
	v.refs = sec[off:]
	return nil
}

// value materializes (and memoizes) table entry i.
func (v *View) value(i int) string {
	if v.valStr == nil {
		v.valStr = make([]string, len(v.valTab))
	}
	if s := v.valStr[i]; s != "" {
		return s
	}
	sp := v.valTab[i]
	s := string(v.valRaw[sp.off:sp.end])
	v.valStr[i] = s
	return s
}

// Len returns the number of entries.
func (v *View) Len() int { return v.m }

// run returns node j's child run [start, end) in the bitmap. A walk in
// key order reaches each depth's nodes in id order, so last[depth]
// holds node j-1 there and the end of its run, where j's starts: only
// the first node of a depth needs a select.
func (v *View) run(j, depth int, last *[][2]int) (int, int) {
	for len(*last) <= depth {
		*last = append(*last, [2]int{-1, -1})
	}
	at, start := &(*last)[depth], 0
	if j > 0 && at[0] == j-1 {
		start = at[1] + 1
	} else if j > 0 {
		start = v.louds.select0(j-1) + 1
	}
	*at = [2]int{j, v.louds.nextZero(start)}
	return start, at[1]
}

// Ascend walks the catalogue in ascending key order, materializing
// one entry at a time, and stops early when yield returns false.
func (v *View) Ascend(yield func(Entry) bool) error { return v.ascend(yield, false) }

// Walk is Ascend for a caller that keeps no entry's Values past its
// yield (they are the walk's buffer, which the next group overwrites)
// and few of its keys (they share chunks, an Arena): it allocates per
// chunk, not per entry.
func (v *View) Walk(yield func(Entry) bool) error { return v.ascend(yield, true) }

func (v *View) ascend(yield func(Entry) bool, shared bool) error {
	if v.louds == nil {
		for _, e := range v.eager {
			if !yield(e) {
				return nil
			}
		}
		return nil
	}
	type frame struct{ kid, end int }
	stack := make([]frame, 0, 16)
	key := make([]byte, 0, 32)
	vc := valCursor{refs: v.refs, shared: shared}
	var keys *Arena // nil: a string per key
	if shared {
		keys = new(Arena)
	}
	var last [][2]int // per depth: the node whose run ended last, and where
	emitted, visited := 0, 0

	node := 0
	for {
		if visited++; visited > v.n {
			return errors.New("catalog: cyclic LOUDS bitmap")
		}
		if v.isEnt.get(node) {
			e := Entry{Key: keys.String(key)}
			if v.secs&SecValues != 0 {
				var err error
				if e.Values, err = v.nextValues(&vc); err != nil {
					return err
				}
			}
			emitted++
			if !yield(e) {
				return nil
			}
		}
		start, end := v.run(node, len(stack), &last)
		if start < end { // descend to the first child
			kid := v.louds.rank1(start) + 1
			if kid >= v.n {
				return errors.New("catalog: LOUDS child out of range")
			}
			stack = append(stack, frame{kid, kid + (end - start)})
			key = append(key, v.labels[kid-1])
			node = kid
			continue
		}
		// Ascend until a sibling exists.
		for {
			if len(stack) == 0 {
				if emitted != v.m {
					return errors.New("catalog: unreachable entry nodes")
				}
				return nil
			}
			top := &stack[len(stack)-1]
			key = key[:len(key)-1]
			top.kid++
			if top.kid < top.end {
				if top.kid >= v.n {
					return errors.New("catalog: LOUDS child out of range")
				}
				key = append(key, v.labels[top.kid-1])
				node = top.kid
				break
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// valCursor walks the run-length-grouped value-reference stream: a
// group `repeat | count | refs...` covers repeat+1 consecutive
// entries sharing one value list.
type valCursor struct {
	refs   []byte
	repeat uint64   // entries left that use vals
	vals   []string // current group's value list
	shared bool     // hand out vals itself (Walk), not a copy
}

func (v *View) nextValues(c *valCursor) ([]string, error) {
	if c.repeat == 0 {
		rep, refs, err := Uvarint(c.refs)
		if err != nil {
			return nil, fmt.Errorf("catalog: value run length: %w", err)
		}
		if rep > uint64(v.m) {
			return nil, errors.New("catalog: implausible value run length")
		}
		cu, refs, err := Uvarint(refs)
		if err != nil {
			return nil, fmt.Errorf("catalog: value ref count: %w", err)
		}
		if cu > uint64(len(refs))+1 {
			return nil, errors.New("catalog: implausible value ref count")
		}
		vals := c.vals[:0]
		for i := uint64(0); i < cu; i++ {
			var idx uint64
			if idx, refs, err = Uvarint(refs); err != nil {
				return nil, fmt.Errorf("catalog: value ref: %w", err)
			}
			if idx >= uint64(len(v.valTab)) {
				return nil, errors.New("catalog: value ref out of table")
			}
			vals = append(vals, v.value(int(idx)))
		}
		c.refs, c.repeat, c.vals = refs, rep+1, vals
	}
	c.repeat--
	switch {
	case len(c.vals) == 0:
		return nil, nil
	case c.shared:
		return c.vals, nil
	}
	// Each entry gets its own slice: decoded entries are handed to
	// callers that own and may mutate them.
	return append([]string(nil), c.vals...), nil
}

// Arena hands out strings copied from byte slices, carved from shared
// chunks that double from 64 bytes to 16 KiB: one allocation per chunk,
// which lives while any of its strings does. The zero Arena is ready.
type Arena struct{ b strings.Builder }

// String returns a string with the bytes of p; a nil Arena allocates
// it alone.
func (a *Arena) String(p []byte) string {
	if a == nil {
		return string(p)
	}
	if a.b.Cap()-a.b.Len() < len(p) {
		size := max(min(2*a.b.Cap(), 16<<10), 64, len(p))
		a.b = strings.Builder{}
		a.b.Grow(size)
	}
	start := a.b.Len()
	a.b.Write(p)
	return a.b.String()[start:]
}

// get reports bit i of the entry bitmap.
func (b *bitvec) get(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}
