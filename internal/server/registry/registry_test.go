package registry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mint/internal/obs"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

func testGraph(seed int64, edges int) *temporal.Graph {
	return testutil.RandomGraph(rand.New(rand.NewSource(seed)), 16, edges, 1000)
}

// TestSingleFlight: N concurrent Gets for one cold dataset trigger
// exactly one loader call, and everyone receives the same graph.
func TestSingleFlight(t *testing.T) {
	var loads atomic.Int64
	release := make(chan struct{})
	g0 := testGraph(1, 200)
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		loads.Add(1)
		<-release // hold the flight open until every caller has joined
		return g0, nil
	}})

	const callers = 16
	var wg sync.WaitGroup
	got := make([]*temporal.Graph, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = reg.Get(context.Background(), "ds")
		}(i)
	}
	// Let the callers pile up on the single flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times for one name, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if got[i] != g0 {
			t.Fatalf("caller %d got a different graph pointer", i)
		}
	}
}

// TestLoadRetryBackoff: transient loader failures are retried (within
// MaxAttempts) before the flight lands.
func TestLoadRetryBackoff(t *testing.T) {
	var calls atomic.Int64
	reg := New(Options{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			if calls.Add(1) < 3 {
				return nil, errors.New("flaky NFS")
			}
			return testGraph(2, 100), nil
		},
	})
	if _, err := reg.Get(context.Background(), "ds"); err != nil {
		t.Fatalf("Get after retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("loader calls = %d, want 3", calls.Load())
	}
}

// TestLoadFailureNotCached: a flight that exhausts its attempts fails
// every waiter, but the next Get starts a fresh flight (no negative
// caching).
func TestLoadFailureNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	reg := New(Options{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			calls.Add(1)
			if fail.Load() {
				return nil, errors.New("down")
			}
			return testGraph(3, 100), nil
		},
	})
	if _, err := reg.Get(context.Background(), "ds"); err == nil {
		t.Fatal("Get succeeded while the loader was down")
	}
	if calls.Load() != 2 {
		t.Fatalf("loader calls = %d, want MaxAttempts=2", calls.Load())
	}
	fail.Store(false)
	if _, err := reg.Get(context.Background(), "ds"); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if reg.Len() != 1 {
		t.Fatalf("entries = %d, want 1", reg.Len())
	}
}

// TestLRUEviction: crossing the byte watermark evicts the
// least-recently-used graph, not the most recently touched one.
func TestLRUEviction(t *testing.T) {
	mkGraph := func(name string) *temporal.Graph { return testGraph(int64(len(name)), 400) }
	oneSize := GraphBytes(mkGraph("a"))
	reg := New(Options{
		MaxBytes: 2*oneSize + oneSize/2, // room for two graphs, not three
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return mkGraph(name), nil
		},
		Obs: obs.New(""),
	})
	ctx := context.Background()
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Get(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim when "c" lands.
	if _, err := reg.Get(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range reg.Names() {
		names[n] = true
	}
	if !names["a"] || !names["c"] || names["b"] {
		t.Fatalf("cached = %v, want {a, c} (b evicted as LRU)", reg.Names())
	}
	if reg.Bytes() > 2*oneSize+oneSize/2 {
		t.Fatalf("resident bytes %d above watermark", reg.Bytes())
	}
}

// TestOversizeGraphStillCached: one graph above the watermark is cached
// anyway (reload-per-request would be strictly worse), and the next
// load evicts it.
func TestOversizeGraphStillCached(t *testing.T) {
	reg := New(Options{
		MaxBytes: 1, // everything is oversize
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return testGraph(9, 300), nil
		},
	})
	ctx := context.Background()
	if _, err := reg.Get(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("oversize graph not cached: entries = %d", reg.Len())
	}
	if _, err := reg.Get(ctx, "big2"); err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "big2" {
		t.Fatalf("cached = %v, want just big2", names)
	}
}

// TestJoinerCancellation: a caller joining a slow flight honors its own
// context instead of waiting for the flight.
func TestJoinerCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		<-release
		return testGraph(4, 100), nil
	}})
	go reg.Get(context.Background(), "slow") //nolint:errcheck // flight owner
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := reg.Get(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("joiner err = %v, want DeadlineExceeded", err)
	}
}

// TestConcurrentDistinctNames: distinct datasets load concurrently and
// independently under racing callers.
func TestConcurrentDistinctNames(t *testing.T) {
	reg := New(Options{Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
		return testGraph(int64(len(name)), 100+10*len(name)), nil
	}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("ds-%d", i)
				if _, err := reg.Get(context.Background(), name); err != nil {
					t.Errorf("Get(%s): %v", name, err)
				}
			}(i)
		}
	}
	wg.Wait()
	if reg.Len() != 8 {
		t.Fatalf("entries = %d, want 8", reg.Len())
	}
}

// TestCheckoutPinBlocksEviction is the evict-during-mine regression: a
// dataset checked out by an in-flight mining request must survive the
// LRU pass that a burst of other loads triggers, and become evictable
// again once released.
func TestCheckoutPinBlocksEviction(t *testing.T) {
	mkGraph := func(name string) *temporal.Graph { return testGraph(int64(len(name)), 400) }
	oneSize := GraphBytes(mkGraph("a"))
	reg := New(Options{
		MaxBytes: oneSize + oneSize/2, // room for one graph, not two
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return mkGraph(name), nil
		},
		Obs: obs.New(""),
	})
	ctx := context.Background()

	ga, release, err := reg.Checkout(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if ga == nil {
		t.Fatal("Checkout returned nil graph")
	}
	// "b" landing would normally evict LRU "a"; the pin must block it
	// (the watermark transiently overshoots instead of lying).
	if _, err := reg.Get(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	cached := map[string]bool{}
	for _, n := range reg.Names() {
		cached[n] = true
	}
	if !cached["a"] {
		t.Fatalf("pinned dataset evicted mid-mine; cached = %v", reg.Names())
	}

	// Released (idempotently), "a" is LRU and fair game again.
	release()
	release()
	if _, err := reg.Get(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	cached = map[string]bool{}
	for _, n := range reg.Names() {
		cached[n] = true
	}
	if cached["a"] {
		t.Fatalf("released dataset not evicted under pressure; cached = %v", reg.Names())
	}
	if cached["c"] != true {
		t.Fatalf("latest load missing; cached = %v", reg.Names())
	}
}

// TestCheckoutConcurrentMiningUnderPressure: many goroutines check out
// and "mine" a dataset while other loads churn the watermark; under
// -race this shakes the pin accounting, and every checkout must see a
// usable graph.
func TestCheckoutConcurrentMiningUnderPressure(t *testing.T) {
	mkGraph := func(name string) *temporal.Graph { return testGraph(int64(len(name)), 300) }
	reg := New(Options{
		MaxBytes: GraphBytes(mkGraph("hot")) + 1,
		Loader: func(ctx context.Context, name string) (*temporal.Graph, error) {
			return mkGraph(name), nil
		},
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				g, release, err := reg.Checkout(ctx, "hot")
				if err != nil {
					t.Errorf("checkout: %v", err)
					return
				}
				if g.NumEdges() == 0 {
					t.Error("checked-out graph is empty")
				}
				// Churn the cache while the pin is held.
				if _, err := reg.Get(ctx, fmt.Sprintf("cold-%d-%d", i, j)); err != nil {
					t.Errorf("churn load: %v", err)
				}
				release()
			}
		}(i)
	}
	wg.Wait()
}
