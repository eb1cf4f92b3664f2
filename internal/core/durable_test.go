package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dlpt/engine"
	"dlpt/engine/local"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/persist"
)

// durableOverlay is an engine/local overlay on a store in dir.
type durableOverlay struct {
	dir   string
	store *persist.Store
	eng   *local.Engine
}

func openDurable(t *testing.T, dir string, seed int64, restore bool) *durableOverlay {
	t.Helper()
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := local.New(engine.Config{Alphabet: keys.LowerAlnum, Capacities: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20},
		Seed: seed, Persist: store, Restore: restore})
	if err != nil {
		t.Fatal(err)
	}
	return &durableOverlay{dir: dir, store: store, eng: eng}
}

func (d *durableOverlay) close() {
	d.eng.Close()
	d.store.Close()
}

func (d *durableOverlay) net() *core.Network { return d.eng.Cluster().Net }

// snapshots lists the epochs of the snapshot files in the directory.
func (d *durableOverlay) snapshots(t *testing.T) []uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(d.dir, "snapshot-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, name := range names {
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "snapshot-"), ".snap"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs
}

// TestCommittedImagesMatchTheTree runs seeded schedules on a durable
// engine/local overlay — registrations, unregistrations, ticks, lossy
// crashes with their recovery, joins and leaves, and process deaths
// between BeginSnapshot and Commit followed by a restore — and holds
// every image the store commits, byte for byte, to AppendImage over the
// tree's catalogue and ring at the tick's capture. However a tick
// produces its image, this is what it must write.
func TestCommittedImagesMatchTheTree(t *testing.T) {
	ctx := context.Background()
	images, restarts := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		d := openDurable(t, dir, seed, false)
		var live []engine.Entry
		last := uint64(0)
		tick := func(step int) {
			t.Helper()
			net := d.net()
			peers, want := net.PersistState()
			if _, err := d.eng.Replicate(ctx); err != nil {
				t.Fatalf("seed %d step %d: tick: %v", seed, step, err)
			}
			for _, seq := range d.snapshots(t) {
				if seq <= last {
					continue
				}
				last = seq
				got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("snapshot-%d.snap", seq)))
				if err != nil {
					t.Fatal(err)
				}
				if exp := persist.AppendImage(nil, seq, peers, want); !bytes.Equal(got, exp) {
					t.Fatalf("seed %d step %d: image %d (%d bytes) differs from the capture's (%d bytes, %d keys)",
						seed, step, seq, len(got), len(exp), len(want))
				}
				images++
			}
		}
		for step := 0; step < 600; step++ {
			switch op := r.Intn(100); {
			case op < 48:
				e := engine.Entry{Key: string(keys.LowerAlnum.RandomKey(r, 1, 5)), Value: fmt.Sprintf("ep://%d", r.Intn(4))}
				if err := d.eng.Register(ctx, e.Key, e.Value); err != nil {
					t.Fatal(err)
				}
				live = append(live, e)
			case op < 68 && len(live) > 0:
				i := r.Intn(len(live))
				if _, err := d.eng.Unregister(ctx, live[i].Key, live[i].Value); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			case op < 90:
				tick(step)
			case op < 93 && d.eng.NumPeers() > 2:
				// Writes since the last tick make the crash lossy.
				ids := d.net().PeerIDs()
				if err := d.eng.CrashPeer(ctx, string(ids[r.Intn(len(ids))])); err != nil {
					t.Fatal(err)
				}
				if _, err := d.eng.Recover(ctx); err != nil {
					t.Fatal(err)
				}
			case op < 96:
				if _, err := d.eng.AddPeer(ctx, 1<<20); err != nil {
					t.Fatal(err)
				}
			case op < 99 && d.eng.NumPeers() > 2:
				ids := d.net().PeerIDs()
				if err := d.eng.RemovePeer(ctx, string(ids[r.Intn(len(ids))])); err != nil {
					t.Fatal(err)
				}
			case op == 99 && last > 0:
				// The process dies between BeginSnapshot and Commit, and a
				// new one restores from the directory.
				if _, err := d.store.BeginSnapshot(); err != nil {
					t.Fatal(err)
				}
				d.close()
				d = openDurable(t, dir, seed*1000+int64(step), true)
				restarts++
			}
		}
		tick(600)
		d.close()
	}
	t.Logf("%d images held to their captures across %d restarts", images, restarts)
	if images < 100 {
		t.Fatalf("only %d images committed", images)
	}
}
