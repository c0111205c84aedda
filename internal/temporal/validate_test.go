package temporal

import (
	"math/rand"
	"strings"
	"testing"
)

// cloneGraph deep-copies g so a corruption never leaks between subtests.
func cloneGraph(g *Graph) *Graph {
	return &Graph{
		Edges:    append([]Edge(nil), g.Edges...),
		outOff:   append([]int32(nil), g.outOff...),
		inOff:    append([]int32(nil), g.inOff...),
		out:      append([]EdgeID(nil), g.out...),
		in:       append([]EdgeID(nil), g.in...),
		numNodes: g.numNodes,
	}
}

// validateCorruptions is the invariant-by-invariant corruption table:
// each entry breaks exactly one structural property Validate guards.
var validateCorruptions = []struct {
	name    string
	corrupt func(g *Graph)
}{
	{"time order", func(g *Graph) {
		g.Edges[0].Time, g.Edges[len(g.Edges)-1].Time =
			g.Edges[len(g.Edges)-1].Time, g.Edges[0].Time+1
	}},
	{"src out of range", func(g *Graph) { g.Edges[1].Src = NodeID(g.numNodes) }},
	{"dst negative", func(g *Graph) { g.Edges[1].Dst = -1 }},
	{"out table truncated", func(g *Graph) { g.outOff = g.outOff[:len(g.outOff)-1] }},
	{"in table oversized", func(g *Graph) { g.inOff = append(g.inOff, g.inOff[len(g.inOff)-1]) }},
	{"out id out of range", func(g *Graph) {
		l := g.OutEdges(firstNonEmpty(g.outOff))
		l[0] = EdgeID(len(g.Edges))
	}},
	{"out id negative", func(g *Graph) {
		l := g.OutEdges(firstNonEmpty(g.outOff))
		l[0] = -1
	}},
	{"in id out of range", func(g *Graph) {
		l := g.InEdges(firstNonEmpty(g.inOff))
		l[len(l)-1] = EdgeID(len(g.Edges) + 3)
	}},
	{"out list not increasing", func(g *Graph) {
		for u := 0; u < g.numNodes; u++ {
			if l := g.OutEdges(NodeID(u)); len(l) >= 2 {
				l[1] = l[0]
				return
			}
		}
		panic("test graph has no out list with 2 entries")
	}},
	{"out list foreign edge", func(g *Graph) {
		// Move node u's last out edge to the front of node u+1's list,
		// which is not its source.
		for u := 0; u+1 < g.numNodes; u++ {
			if len(g.OutEdges(NodeID(u))) > 0 {
				g.outOff[u+1]--
				return
			}
		}
		panic("test graph has no movable out edge")
	}},
	{"in list dropped entry", func(g *Graph) {
		v := firstNonEmpty(g.inOff)
		lo := g.inOff[v]
		g.in = append(g.in[:lo], g.in[lo+1:]...)
		for w := int(v) + 1; w < len(g.inOff); w++ {
			g.inOff[w]--
		}
	}},
}

// firstNonEmpty returns the first node with a non-empty run in a CSR
// offset table.
func firstNonEmpty(off []int32) NodeID {
	for u := 1; u < len(off); u++ {
		if off[u] > off[u-1] {
			return NodeID(u - 1)
		}
	}
	panic("test graph has no non-empty list")
}

// TestValidateDetectsCorruption corrupts each invariant in turn and
// requires Validate to reject every mutation while accepting the
// pristine graph — the loader-side safety net the miners rely on to
// never index out of bounds or count against a miswired adjacency.
func TestValidateDetectsCorruption(t *testing.T) {
	base, err := NewGraph([]Edge{
		{0, 1, 10}, {1, 2, 20}, {2, 0, 30}, {0, 2, 30}, {2, 1, 40}, {1, 0, 55},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("pristine graph fails validation: %v", err)
	}
	for _, tc := range validateCorruptions {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			g := cloneGraph(base)
			tc.corrupt(g)
			if err := g.Validate(); err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			} else {
				t.Logf("detected: %v", err)
			}
		})
	}
}

// TestValidateRandomizedCorruption is the property-test form: random
// graphs, random corruption from the table, Validate must always object.
func TestValidateRandomizedCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(6)
		edges := make([]Edge, 0, 24)
		ts := Timestamp(0)
		for i := 0; i < 12+rng.Intn(12); i++ {
			ts += Timestamp(rng.Intn(3))
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				v = (v + 1) % NodeID(n)
			}
			edges = append(edges, Edge{Src: u, Dst: v, Time: ts})
		}
		g, err := NewGraph(edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: valid random graph rejected: %v", trial, err)
		}
		tc := validateCorruptions[rng.Intn(len(validateCorruptions))]
		c := cloneGraph(g)
		tc.corrupt(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("trial %d: corruption %q not detected", trial, tc.name)
		}
	}
}

// TestReadSNAPValidates confirms the loader runs the validator: a
// well-formed file loads, and the resulting graph passes Validate.
func TestReadSNAPValidates(t *testing.T) {
	g, err := ReadSNAP(strings.NewReader("# comment\n5 7 100\n7 5 101\n5 9 102\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("loaded graph fails validation: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes / %d edges, want 3/3", g.NumNodes(), g.NumEdges())
	}
}
