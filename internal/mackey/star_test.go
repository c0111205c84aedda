package mackey

import (
	"context"
	"math/rand"
	"testing"

	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

func TestStarOf(t *testing.T) {
	cases := []struct {
		spec string
		star Star
		ok   bool
	}{
		{"0->1,0->2,0->3,0->4", Star{Out: true, Edges: 4}, true},
		{"2->0,2->1", Star{Out: true, Edges: 2}, true},
		{"1->0,2->0,3->0", Star{Out: false, Edges: 3}, true},
		{"0->1", Star{}, false},           // one edge: no leaves after the root
		{"0->1,0->1", Star{}, false},      // repeated leaf
		{"0->1,0->2,2->0", Star{}, false}, // mixed direction
		{"0->1,1->2,2->0", Star{}, false},
		{"0->1,2->1,0->3", Star{}, false},
	}
	for _, c := range cases {
		m, err := temporal.ParseMotif("m", 10, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := StarOf(m); ok != c.ok || got != c.star {
			t.Errorf("StarOf(%s) = %+v, %v; want %+v, %v", c.spec, got, ok, c.star, c.ok)
		}
	}
}

// TestStarFits pins the overflow bound j·W^j ≤ MaxInt64 on a hub of
// out-degree W: W = 387 fits eight-edge stars (7·387^7 ≈ 9.1e18) and
// W = 388 does not, while four-edge stars fit both.
func TestStarFits(t *testing.T) {
	hub := func(w int) *temporal.Graph {
		edges := make([]temporal.Edge, w)
		for i := range edges {
			edges[i] = temporal.Edge{Src: 0, Dst: temporal.NodeID(i + 1), Time: temporal.Timestamp(i)}
		}
		return temporal.MustNewGraph(edges)
	}
	for _, c := range []struct {
		w, k int
		out  bool
		fits bool
	}{
		{387, 8, true, true}, {388, 8, true, false}, {388, 4, true, true},
		{388, 8, false, true}, // every in-degree is 1
	} {
		if got := (Star{Out: c.out, Edges: c.k}).Fits(hub(c.w)); got != c.fits {
			t.Errorf("W=%d k=%d out=%v: Fits = %v, want %v", c.w, c.k, c.out, got, c.fits)
		}
	}
}

// TestStarKernelMatchesExecutor checks the kernel against the trie
// executor on random graphs dense in self-loops, equal timestamps and
// duplicate edges, whole and split into root ranges, at 1 and 3
// workers.
func TestStarKernelMatchesExecutor(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 4+rng.Intn(8), 150+rng.Intn(150), 200)
		for k := 2; k <= 5; k++ {
			out, _ := temporal.OutStar(k, 1)
			in, _ := temporal.InStar(k, 1)
			for _, m := range []*temporal.Motif{out, in} {
				for _, delta := range []temporal.Timestamp{1, 15, 60} {
					m := m.WithDelta(delta)
					want := Mine(g, m, Options{}).Matches
					s, ok := KernelFor(g, m, Options{}, runctl.Budget{})
					if !ok {
						t.Fatalf("%s not routed to a kernel", m)
					}
					for _, workers := range []int{1, 3} {
						res, err := MineStarCtx(ctx, g, s, delta, Options{Workers: workers}, runctl.Budget{})
						if err != nil || res.Truncated || res.Matches != want {
							t.Fatalf("seed %d %s δ=%d workers %d: kernel %d (truncated %v, %v), executor %d",
								seed, m, delta, workers, res.Matches, res.Truncated, err, want)
						}
						if res.Stats.NodesExpanded != 0 || res.Stats.Matches != want {
							t.Fatalf("kernel stats %+v", res.Stats)
						}
						mid := temporal.EdgeID(g.NumEdges() / 3)
						var sum int64
						for _, r := range []RootRange{{0, mid}, {mid, temporal.EdgeID(g.NumEdges())}} {
							part, err := MineStarCtx(ctx, g, s, delta, Options{Workers: workers, Roots: &r}, runctl.Budget{})
							if err != nil {
								t.Fatal(err)
							}
							if exe := Mine(g, m, Options{Roots: &r}).Matches; part.Matches != exe {
								t.Fatalf("seed %d %s δ=%d roots %v: kernel %d, executor %d", seed, m, delta, r, part.Matches, exe)
							}
							sum += part.Matches
						}
						if sum != want {
							t.Fatalf("seed %d %s δ=%d: root ranges sum to %d, want %d", seed, m, delta, sum, want)
						}
					}
				}
			}
		}
	}
}

// TestKernelForRouting: every observation the kernel cannot reproduce
// keeps the motif on the executor.
func TestKernelForRouting(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(1)), 8, 100, 100)
	m4 := temporal.M4(10)
	if _, ok := KernelFor(g, m4, Options{}, runctl.Budget{}); !ok {
		t.Fatal("M4 not routed")
	}
	if _, ok := KernelFor(g, temporal.M1(10), Options{}, runctl.Budget{}); ok {
		t.Fatal("M1 routed to a star kernel")
	}
	for name, c := range map[string]struct {
		opts Options
		b    runctl.Budget
	}{
		"probe":           {Options{Probe: NopProbe{}}, runctl.Budget{}},
		"memo":            {Options{Memo: NewMemoTable(g.NumNodes())}, runctl.Budget{}},
		"max matches":     {Options{}, runctl.Budget{MaxMatches: 10}},
		"max nodes":       {Options{}, runctl.Budget{MaxNodes: 10}},
		"ctl node budget": {Options{Ctl: runctl.New(context.Background(), runctl.Budget{MaxNodes: 10})}, runctl.Budget{}},
	} {
		if _, ok := KernelFor(g, m4, c.opts, c.b); ok {
			t.Errorf("%s: M4 routed to a kernel", name)
		}
	}
}
