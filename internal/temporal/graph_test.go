package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fig1Graph is the walk-through graph of paper Fig 1/Fig 4(b): six
// temporal edges over four nodes.
func fig1Graph() *Graph {
	return MustNewGraph([]Edge{
		{0, 1, 5},
		{1, 2, 10},
		{2, 0, 20},
		{2, 3, 25},
		{1, 2, 30},
		{0, 1, 40},
	})
}

func TestNewGraphSortsByTime(t *testing.T) {
	g := MustNewGraph([]Edge{
		{0, 1, 30},
		{1, 2, 10},
		{2, 0, 20},
	})
	if g.NumEdges() != 3 || g.NumNodes() != 3 {
		t.Fatalf("got %d edges, %d nodes", g.NumEdges(), g.NumNodes())
	}
	for i, want := range []Timestamp{10, 20, 30} {
		if g.Edges[i].Time != want {
			t.Errorf("edge %d time = %d, want %d", i, g.Edges[i].Time, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewGraphRejectsNegativeNodes(t *testing.T) {
	if _, err := NewGraph([]Edge{{-1, 0, 1}}); err == nil {
		t.Fatal("want error for negative src")
	}
	if _, err := NewGraph([]Edge{{0, -2, 1}}); err == nil {
		t.Fatal("want error for negative dst")
	}
}

func TestAdjacencyListsAreIndexSorted(t *testing.T) {
	g := fig1Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out0 := g.OutEdges(0)
	if len(out0) != 2 || out0[0] != 0 || out0[1] != 5 {
		t.Errorf("Out(0) = %v, want [0 5]", out0)
	}
	in2 := g.InEdges(2)
	if len(in2) != 2 || in2[0] != 1 || in2[1] != 4 {
		t.Errorf("In(2) = %v, want [1 4]", in2)
	}
	if g.TimeSpan() != 35 {
		t.Errorf("TimeSpan = %d, want 35", g.TimeSpan())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := MustNewGraph(nil)
	if g.NumEdges() != 0 || g.NumNodes() != 0 || g.TimeSpan() != 0 {
		t.Fatalf("empty graph: edges=%d nodes=%d span=%d", g.NumEdges(), g.NumNodes(), g.TimeSpan())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchAfter(t *testing.T) {
	list := []EdgeID{2, 5, 9, 14}
	cases := []struct {
		after EdgeID
		want  int
	}{
		{-1, 0}, {1, 0}, {2, 1}, {5, 2}, {8, 2}, {14, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := SearchAfter(list, c.after); got != c.want {
			t.Errorf("SearchAfter(%v, %d) = %d, want %d", list, c.after, got, c.want)
		}
	}
	if got := SearchAfter(nil, 3); got != 0 {
		t.Errorf("SearchAfter(nil) = %d, want 0", got)
	}
}

func TestLinearSearchAfterAgreesWithBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		list := make([]EdgeID, n)
		v := EdgeID(0)
		for i := range list {
			v += EdgeID(1 + rng.Intn(4))
			list[i] = v
		}
		after := EdgeID(rng.Intn(25) - 2)
		want := SearchAfter(list, after)
		got, _ := LinearSearchAfter(list, 0, after)
		if got != want {
			t.Fatalf("list=%v after=%d: linear=%d binary=%d", list, after, got, want)
		}
		// Starting at any position ≤ want must find the same answer.
		if want > 0 {
			start := rng.Intn(want + 1)
			got, _ = LinearSearchAfter(list, start, after)
			if got != want {
				t.Fatalf("list=%v after=%d start=%d: linear=%d binary=%d", list, after, start, got, want)
			}
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := fig1Graph()
	out := g.OutDegreeStats()
	// Out-degrees: node0=2, node1=2, node2=2, node3=0.
	if out.Max != 2 || out.NumNonZero != 3 {
		t.Errorf("out stats = %+v", out)
	}
	if out.Mean != 2.0 {
		t.Errorf("out mean = %v, want 2", out.Mean)
	}
	in := g.InDegreeStats()
	// In-degrees: node0=1, node1=2, node2=2, node3=1.
	if in.Max != 2 || in.NumNonZero != 4 {
		t.Errorf("in stats = %+v", in)
	}
	if g.MaxOutDegree() != out.Max || g.MaxInDegree() != in.Max {
		t.Errorf("MaxOutDegree/MaxInDegree = %d/%d, want %d/%d", g.MaxOutDegree(), g.MaxInDegree(), out.Max, in.Max)
	}
}

func TestEdgesPerDelta(t *testing.T) {
	g := fig1Graph()
	// span=35, m=6: k(35) = 6, k(7) = 6*7/35 = 1.2
	if got := g.EdgesPerDelta(35); got != 6 {
		t.Errorf("k(35) = %v, want 6", got)
	}
	if got := g.EdgesPerDelta(7); got != 1.2 {
		t.Errorf("k(7) = %v, want 1.2", got)
	}
}

// TestGraphInvariantsProperty checks, via testing/quick, that construction
// from arbitrary edge sets always yields a graph satisfying Validate.
func TestGraphInvariantsProperty(t *testing.T) {
	f := func(raw []struct {
		Src, Dst uint8
		Time     int16
	}) bool {
		edges := make([]Edge, len(raw))
		for i, r := range raw {
			edges[i] = Edge{NodeID(r.Src % 16), NodeID(r.Dst % 16), Timestamp(r.Time)}
		}
		g, err := NewGraph(edges)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
