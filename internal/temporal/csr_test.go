package temporal_test

import (
	"math/rand"
	"slices"
	"testing"

	"mint/internal/temporal"
	"mint/internal/testutil"
)

// randomEdges draws an edge multiset with many timestamp ties, negative
// timestamps and a node-id range that varies per trial.
func randomEdges(rng *rand.Rand) []temporal.Edge {
	n := 1 + rng.Intn(40)
	edges := make([]temporal.Edge, rng.Intn(200))
	for i := range edges {
		edges[i] = temporal.Edge{
			Src:  temporal.NodeID(rng.Intn(n)),
			Dst:  temporal.NodeID(rng.Intn(n)),
			Time: temporal.Timestamp(rng.Intn(30) - 15),
		}
	}
	return edges
}

// TestCSRMatchesListLayout: NewGraph on any edge order, and FromSorted on
// the stably sorted edges, are bit-identical to the per-node list layout
// (edges, every OutEdges/InEdges list, NumNodes) and pass Validate.
func TestCSRMatchesListLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		edges := randomEdges(rng)
		g, err := temporal.NewGraph(edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := testutil.CheckListLayout(g, edges); err != nil {
			t.Fatalf("trial %d: NewGraph: %v", trial, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: NewGraph fails Validate: %v", trial, err)
		}
		sorted := slices.Clone(g.Edges)
		f, err := temporal.FromSorted(sorted)
		if err != nil {
			t.Fatalf("trial %d: FromSorted: %v", trial, err)
		}
		if err := testutil.CheckListLayout(f, edges); err != nil {
			t.Fatalf("trial %d: FromSorted: %v", trial, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("trial %d: FromSorted fails Validate: %v", trial, err)
		}
	}
}

// TestFromSortedAdoptsWithoutCopy: the graph's edge list is the caller's
// array, capped at its length, so the caller's later appends never land
// in it.
func TestFromSortedAdoptsWithoutCopy(t *testing.T) {
	buf := make([]temporal.Edge, 0, 8)
	buf = append(buf, temporal.Edge{Src: 0, Dst: 1, Time: 1}, temporal.Edge{Src: 1, Dst: 2, Time: 1})
	g, err := temporal.FromSorted(buf)
	if err != nil {
		t.Fatal(err)
	}
	if &g.Edges[0] != &buf[0] {
		t.Fatal("FromSorted copied its input")
	}
	if cap(g.Edges) != len(buf) {
		t.Fatalf("graph edge list cap %d, want %d", cap(g.Edges), len(buf))
	}
	buf = append(buf, temporal.Edge{Src: 2, Dst: 0, Time: 5})
	if g.NumEdges() != 2 || g.NumNodes() != 3 {
		t.Fatalf("graph changed after caller append: %d edges, %d nodes", g.NumEdges(), g.NumNodes())
	}
	if out := g.OutEdges(0); cap(out) != len(out) {
		t.Fatalf("OutEdges cap %d beyond its length %d", cap(out), len(out))
	}
}

// TestFromSortedRejects: unsorted input and negative node ids fail loudly.
func TestFromSortedRejects(t *testing.T) {
	if _, err := temporal.FromSorted([]temporal.Edge{{Src: 0, Dst: 1, Time: 2}, {Src: 1, Dst: 0, Time: 1}}); err == nil {
		t.Fatal("want an error for edges out of time order")
	}
	if _, err := temporal.FromSorted([]temporal.Edge{{Src: 0, Dst: -1, Time: 1}}); err == nil {
		t.Fatal("want an error for a negative node id")
	}
	g, err := temporal.FromSorted(nil)
	if err != nil || g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty FromSorted = %v nodes, %v", g, err)
	}
}
