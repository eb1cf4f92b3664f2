package overlay_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dlpt/engine"
	"dlpt/engine/local"
	"dlpt/internal/core"
	"dlpt/internal/keys"
	"dlpt/internal/live"
	"dlpt/internal/overlay"
	"dlpt/internal/transport"
)

// Every mutation refuses a stopped runtime, and leaves the tree alone
// — behind each of the three links.
func TestStoppedRuntimeRefusesMutations(t *testing.T) {
	caps := []int{100, 100, 100}
	for name, start := range map[string]func() (*overlay.Runtime, func(), error){
		"local": func() (*overlay.Runtime, func(), error) {
			e, err := local.New(engine.Config{Alphabet: keys.LowerAlnum, Capacities: caps, Seed: 7})
			if err != nil {
				return nil, nil, err
			}
			return &e.Cluster().Runtime, func() { e.Close() }, nil
		},
		"live": func() (*overlay.Runtime, func(), error) {
			c, err := live.Start(keys.LowerAlnum, caps, 7)
			if err != nil {
				return nil, nil, err
			}
			return &c.Runtime, c.Stop, nil
		},
		"tcp": func() (*overlay.Runtime, func(), error) {
			c, err := transport.Start(keys.LowerAlnum, caps, 7)
			if err != nil {
				return nil, nil, err
			}
			return &c.Runtime, c.Stop, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			r, stop, err := start()
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			for i := 0; i < 10; i++ {
				if err := r.Register(keys.Key(fmt.Sprintf("svc%03d", i)), "v"); err != nil {
					t.Fatal(err)
				}
			}
			stop()
			if r.Halt() {
				t.Fatal("Halt after the stop reported it closed Quit")
			}
			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, overlay.ErrStopped) {
					t.Errorf("%s after stop = %v", op, err)
				}
			}
			check("Register", r.Register("late", "v"))
			check("RegisterBatch", r.RegisterBatch([]core.KV{{Key: "late", Value: "v"}}))
			_, err = r.Unregister("svc000", "v")
			check("Unregister", err)
			_, err = r.AddPeer(10)
			check("AddPeer", err)
			check("RemovePeer", r.RemovePeer(r.PeerSummaries()[0].ID))
			check("FailPeer", r.FailPeer(r.PeerSummaries()[0].ID))
			_, _, err = r.Recover()
			check("Recover", err)
			_, err = r.Replicate()
			check("Replicate", err)
			_, err = r.ReplicateLocal()
			check("ReplicateLocal", err)
			check("ResetUnit", r.ResetUnit())
			_, err = r.Balance("MLT")
			check("Balance", err)
			r.Mu.RLock()
			got := r.Net.Complete("", rand.New(rand.NewSource(1))).Keys
			r.Mu.RUnlock()
			if len(got) != 10 || got[0] != "svc000" || got[9] != "svc009" {
				t.Fatalf("tree declares %q after refused mutations, want svc000..svc009", got)
			}
		})
	}
}
