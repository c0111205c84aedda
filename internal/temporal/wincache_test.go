package temporal

import (
	"math/rand"
	"testing"
)

// TestWindowCacheMatchesSearchAfter drives randomized query sequences —
// including exact repeats, monotone advances past the linear-scan bound,
// and backward seeks — against both search implementations and requires
// bit-identical answers.
func TestWindowCacheMatchesSearchAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// A strictly increasing index list, like every per-node list.
		n := rng.Intn(40)
		list := make([]EdgeID, n)
		next := EdgeID(0)
		for i := range list {
			next += EdgeID(1 + rng.Intn(5))
			list[i] = next
		}
		c := NewWindowCache(4)
		node := NodeID(rng.Intn(4))
		out := rng.Intn(2) == 0
		after := EdgeID(-1)
		for q := 0; q < 50; q++ {
			switch rng.Intn(4) {
			case 0: // repeat
			case 1: // small forward step
				after += EdgeID(rng.Intn(3))
			case 2: // jump past the linear-advance bound
				after += EdgeID(rng.Intn(60))
			default: // backward seek
				after -= EdgeID(rng.Intn(20))
				if after < -1 {
					after = -1
				}
			}
			want := SearchAfter(list, after)
			got := c.SearchAfter(list, out, node, after)
			if got != want {
				t.Fatalf("trial %d query %d: cache=%d want=%d (after=%d list=%v)",
					trial, q, got, want, after, list)
			}
		}
		if c.Hits()+c.Misses() != 50 {
			t.Fatalf("hits %d + misses %d != 50 queries", c.Hits(), c.Misses())
		}
	}
}

// TestWindowCacheResetInvalidates checks that Reset drops cached state (a
// stale bound from a previous run must not leak into the next) and that a
// pooled cache resized upward keeps answering correctly.
func TestWindowCacheResetInvalidates(t *testing.T) {
	list := []EdgeID{2, 4, 6, 8}
	c := NewWindowCache(2)
	if got := c.SearchAfter(list, true, 1, 5); got != 2 {
		t.Fatalf("warm query = %d, want 2", got)
	}
	other := []EdgeID{10, 20, 30}
	c.Reset(2)
	if got := c.SearchAfter(other, true, 1, -1); got != 0 {
		t.Fatalf("post-reset query = %d, want 0 (stale entry reused)", got)
	}
	c.Reset(8) // grow
	if got := c.SearchAfter(other, false, 7, 15); got != 1 {
		t.Fatalf("post-grow query = %d, want 1", got)
	}
	if c.Hits() != 0 || c.Misses() != 1 {
		t.Fatalf("counters not reset: hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

// TestWindowCacheEpochWrap forces the uint32 epoch counter to wrap and
// verifies no entry from an old epoch is ever trusted.
func TestWindowCacheEpochWrap(t *testing.T) {
	list := []EdgeID{1, 3, 5}
	c := NewWindowCache(1)
	c.SearchAfter(list, true, 0, 4) // cache pos=2 at epoch 1
	c.epoch = ^uint32(0) - 1        // two bumps from wrapping
	c.Reset(1)
	c.Reset(1) // wraps: full clear back to epoch 1
	if c.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", c.epoch)
	}
	if got := c.SearchAfter(list, true, 0, -1); got != 0 {
		t.Fatalf("post-wrap query = %d, want 0", got)
	}
}

func TestGetPutWindowCache(t *testing.T) {
	c := GetWindowCache(16)
	list := []EdgeID{5, 9}
	if got := c.SearchAfter(list, true, 15, 6); got != 1 {
		t.Fatalf("pooled cache query = %d, want 1", got)
	}
	PutWindowCache(c)
	c2 := GetWindowCache(32) // may or may not be the same instance
	if got := c2.SearchAfter(list, true, 15, -1); got != 0 {
		t.Fatalf("recycled cache query = %d, want 0", got)
	}
	PutWindowCache(c2)
	PutWindowCache(nil) // must not panic
}

// TestWindowCacheGraphSwap is the regression test for pooled-cache
// staleness across graphs: a cache used on graph A, returned to the
// pool, and handed out for graph B must answer from B's adjacency —
// never from positions cached against A — even when both graphs have
// the same node count, so Reset takes the O(1) epoch-bump path rather
// than reallocating.
func TestWindowCacheGraphSwap(t *testing.T) {
	ga, err := NewGraph([]Edge{
		{0, 1, 10}, {0, 1, 20}, {0, 1, 30}, {1, 2, 40}, {2, 0, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewGraph([]Edge{
		{0, 2, 5}, {2, 1, 15}, {0, 2, 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ga.NumNodes() != gb.NumNodes() {
		t.Fatalf("test wants equal node counts, got %d vs %d", ga.NumNodes(), gb.NumNodes())
	}

	c := GetWindowCacheFor(ga)
	for u := NodeID(0); int(u) < ga.NumNodes(); u++ {
		c.SearchAfter(ga.OutEdges(u), true, u, 0)
		c.SearchAfter(ga.InEdges(u), false, u, 1)
	}
	PutWindowCache(c)

	c2 := GetWindowCacheFor(gb)
	for u := NodeID(0); int(u) < gb.NumNodes(); u++ {
		for _, after := range []EdgeID{-1, 0, 1, 2} {
			if got, want := c2.SearchAfter(gb.OutEdges(u), true, u, after), SearchAfter(gb.OutEdges(u), after); got != want {
				t.Fatalf("out[%d] after=%d: cache=%d want=%d (stale entry from previous graph)", u, after, got, want)
			}
			if got, want := c2.SearchAfter(gb.InEdges(u), false, u, after), SearchAfter(gb.InEdges(u), after); got != want {
				t.Fatalf("in[%d] after=%d: cache=%d want=%d (stale entry from previous graph)", u, after, got, want)
			}
		}
	}
	PutWindowCache(c2)
}

// TestWindowCacheResetForIdentity pins the ResetFor contract: reuse on
// the same graph stays an O(1) epoch bump, while a different graph
// identity (pointer or edge count) hard-clears every entry so no stale
// position can survive even a hypothetical epoch bug.
func TestWindowCacheResetForIdentity(t *testing.T) {
	ga, err := NewGraph([]Edge{{0, 1, 1}, {1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := NewGraph([]Edge{{0, 1, 1}, {1, 0, 2}, {0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}

	c := &WindowCache{}
	c.ResetFor(ga)
	c.SearchAfter(ga.OutEdges(0), true, 0, 0)
	if c.out[0].epoch != c.epoch {
		t.Fatal("expected a live cached entry after the first query")
	}

	// Same graph: cheap invalidation, entries left behind but unstamped.
	epochBefore := c.epoch
	c.ResetFor(ga)
	if c.epoch != epochBefore+1 {
		t.Fatalf("same-graph ResetFor epoch = %d, want %d (O(1) bump)", c.epoch, epochBefore+1)
	}

	// Different graph: every entry must be physically cleared.
	c.SearchAfter(ga.OutEdges(0), true, 0, 0)
	c.ResetFor(gb)
	for i := range c.out {
		if c.out[i] != (winEntry{}) {
			t.Fatalf("out[%d] = %+v after cross-graph ResetFor, want zero", i, c.out[i])
		}
	}
	for i := range c.in {
		if c.in[i] != (winEntry{}) {
			t.Fatalf("in[%d] = %+v after cross-graph ResetFor, want zero", i, c.in[i])
		}
	}
	if c.epoch != 1 {
		t.Fatalf("epoch after cross-graph ResetFor = %d, want 1", c.epoch)
	}
	if got, want := c.SearchAfter(gb.OutEdges(0), true, 0, 1), SearchAfter(gb.OutEdges(0), EdgeID(1)); got != want {
		t.Fatalf("post-swap query = %d, want %d", got, want)
	}
}
