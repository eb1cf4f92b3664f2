package dlpt

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"dlpt/engine"
	enginelocal "dlpt/engine/local"
	"dlpt/internal/keys"
)

// engineKinds are the shipped backends; API tests run over each.
var engineKinds = []EngineKind{EngineLocal, EngineLive, EngineTCP}

func newRegistry(t *testing.T, peers int, opts ...Option) *Registry {
	t.Helper()
	r, err := New(peers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// forEachEngine runs fn once per engine kind as a subtest.
func forEachEngine(t *testing.T, fn func(t *testing.T, kind EngineKind)) {
	for _, kind := range engineKinds {
		t.Run(string(kind), func(t *testing.T) { fn(t, kind) })
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatalf("numPeers=0 must fail")
	}
	if _, err := New(2, WithEngine("warp")); err == nil {
		t.Fatalf("unknown engine must fail")
	}
	r := newRegistry(t, 1, WithCapacities([]int{5, 5, 5}))
	if r.NumPeers() != 3 {
		t.Fatalf("WithCapacities must override peer count: %d", r.NumPeers())
	}
}

func TestRegisterDiscover(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r := newRegistry(t, 5, WithSeed(7), WithEngine(kind))
		if r.Engine().Name() != string(kind) {
			t.Fatalf("engine name = %q, want %q", r.Engine().Name(), kind)
		}
		if err := r.Register(ctx, "DGEMM", "node-a:9000"); err != nil {
			t.Fatal(err)
		}
		if err := r.Register(ctx, "DGEMM", "node-b:9000"); err != nil {
			t.Fatal(err)
		}
		svc, ok, err := r.Discover(ctx, "DGEMM")
		if err != nil || !ok {
			t.Fatalf("Discover: %v %v", ok, err)
		}
		want := []string{"node-a:9000", "node-b:9000"}
		if !reflect.DeepEqual(svc.Endpoints, want) {
			t.Fatalf("Endpoints = %v", svc.Endpoints)
		}
		if svc.Name != "DGEMM" {
			t.Fatalf("Name = %q", svc.Name)
		}
		if _, ok, _ := r.Discover(ctx, "SGEMM"); ok {
			t.Fatalf("undeclared service found")
		}
	})
}

func TestRegisterBatch(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r := newRegistry(t, 4, WithEngine(kind))
		batch := []Registration{
			{Name: "sgemm", Endpoint: "e1"},
			{Name: "sgemv", Endpoint: "e2"},
			{Name: "dgemm", Endpoint: "e3"},
		}
		if err := r.RegisterBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		svcs, err := r.Services(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(svcs, []string{"dgemm", "sgemm", "sgemv"}) {
			t.Fatalf("Services = %v", svcs)
		}
		if err := r.RegisterBatch(ctx, []Registration{{Name: "", Endpoint: "x"}}); err == nil {
			t.Fatalf("batch with empty name must fail")
		}
	})
}

func TestRegisterValidation(t *testing.T) {
	ctx := context.Background()
	r := newRegistry(t, 2)
	if err := r.Register(ctx, "", "x"); err == nil {
		t.Fatalf("empty name must fail")
	}
	if err := r.Register(ctx, "tab\tname", "x"); err == nil {
		t.Fatalf("name outside alphabet must fail")
	}
}

func TestUnregister(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r := newRegistry(t, 3, WithEngine(kind))
		_ = r.Register(ctx, "saxpy", "e1")
		was, err := r.Unregister(ctx, "saxpy", "e1")
		if err != nil || !was {
			t.Fatalf("unregister = %v, %v", was, err)
		}
		if was, _ := r.Unregister(ctx, "saxpy", "e1"); was {
			t.Fatalf("double unregister must report false")
		}
		if _, ok, _ := r.Discover(ctx, "saxpy"); ok {
			t.Fatalf("service still discoverable")
		}
	})
}

func TestCompleteAndRange(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r := newRegistry(t, 4, WithEngine(kind))
		for _, s := range []string{"sgemm", "sgemv", "strsm", "dgemm", "dgemv"} {
			if err := r.Register(ctx, s, "ep"); err != nil {
				t.Fatal(err)
			}
		}
		got, err := r.Complete(ctx, "sge", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []string{"sgemm", "sgemv"}) {
			t.Fatalf("Complete = %v", got)
		}
		if got, _ := r.Complete(ctx, "sge", 1); len(got) != 1 {
			t.Fatalf("limit ignored: %v", got)
		}
		got, err = r.Range(ctx, "d", "e", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []string{"dgemm", "dgemv"}) {
			t.Fatalf("Range = %v", got)
		}
		if got, _ := r.Services(ctx); len(got) != 5 {
			t.Fatalf("Services = %v", got)
		}
	})
}

func TestEndpoints(t *testing.T) {
	ctx := context.Background()
	r := newRegistry(t, 3)
	_ = r.Register(ctx, "fft", "h2")
	_ = r.Register(ctx, "fft", "h1")
	svc, ok, err := r.Discover(ctx, "fft")
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if !reflect.DeepEqual(svc.Endpoints, []string{"h1", "h2"}) {
		t.Fatalf("Endpoints = %v", svc.Endpoints)
	}
	if svc, _, _ := r.Discover(ctx, "missing"); svc.Endpoints != nil {
		t.Fatalf("missing service endpoints = %v", svc.Endpoints)
	}
}

func TestAddPeerAndValidate(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r := newRegistry(t, 3, WithEngine(kind))
		for _, s := range []string{"a1", "a2", "b1", "b2"} {
			if err := r.Register(ctx, s, "ep"); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.AddPeer(ctx); err != nil {
			t.Fatal(err)
		}
		if r.NumPeers() != 4 {
			t.Fatalf("NumPeers = %d", r.NumPeers())
		}
		if r.NumNodes() == 0 {
			t.Fatalf("NumNodes = 0")
		}
		if err := r.Validate(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWithAlphabet(t *testing.T) {
	ctx := context.Background()
	r := newRegistry(t, 2, WithAlphabet(keys.LowerAlnum))
	if err := r.Register(ctx, "ok_name", "e"); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(ctx, "Bad", "e"); err == nil {
		t.Fatalf("uppercase outside LowerAlnum must fail")
	}
}

func TestCloseRejectsOperations(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r, err := New(2, WithEngine(kind))
		if err != nil {
			t.Fatal(err)
		}
		_ = r.Register(ctx, "x1", "e")
		r.Close()
		r.Close() // idempotent
		if err := r.Register(ctx, "x2", "e"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Register after close = %v", err)
		}
		if _, _, err := r.Discover(ctx, "x1"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Discover after close = %v", err)
		}
		if _, err := r.Unregister(ctx, "x1", "e"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Unregister after close = %v", err)
		}
		if _, err := r.Services(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("Services after close = %v", err)
		}
		if err := r.Validate(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("Validate after close = %v", err)
		}
	})
}

func TestContextCancelledUpFront(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		r := newRegistry(t, 3, WithEngine(kind))
		_ = r.Register(context.Background(), "k1", "e")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := r.Discover(ctx, "k1"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Discover with cancelled ctx = %v", err)
		}
		if err := r.Register(ctx, "k2", "e"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Register with cancelled ctx = %v", err)
		}
		if _, err := r.Complete(ctx, "k", 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("Complete with cancelled ctx = %v", err)
		}
		if _, err := r.Range(ctx, "a", "z", 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("Range with cancelled ctx = %v", err)
		}
	})
}

func TestWithEngineFactory(t *testing.T) {
	called := false
	r, err := New(2, WithEngineFactory(func(cfg engine.Config) (Engine, error) {
		called = true
		return enginelocal.Factory(cfg)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !called {
		t.Fatalf("custom factory not invoked")
	}
	ctx := context.Background()
	if err := r.Register(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Discover(ctx, "k"); err != nil || !ok {
		t.Fatalf("Discover over custom factory: %v %v", ok, err)
	}
}

func TestConcurrentAPI(t *testing.T) {
	forEachEngine(t, func(t *testing.T, kind EngineKind) {
		ctx := context.Background()
		r := newRegistry(t, 6, WithEngine(kind))
		names := []string{"dgemm", "dgemv", "sgemm", "sgemv", "saxpy", "daxpy"}
		for _, n := range names {
			if err := r.Register(ctx, n, "seed"); err != nil {
				t.Fatal(err)
			}
		}
		iters := 60
		if kind == EngineTCP {
			iters = 20 // each discovery is a chain of real TCP dials
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					n := names[(w+i)%len(names)]
					if _, ok, err := r.Discover(ctx, n); err != nil || !ok {
						t.Errorf("discover %q: %v %v", n, ok, err)
						return
					}
					if i%10 == 0 {
						if _, err := r.Complete(ctx, "s", 0); err != nil {
							t.Errorf("complete: %v", err)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	})
}
