// Package testutil provides deterministic random temporal graphs and
// motifs for the cross-validation property tests that anchor every miner
// in this repository to the brute-force oracle.
package testutil

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"mint/internal/temporal"
)

// RandomGraph builds a random temporal graph with n nodes and m edges.
// Timestamps are drawn from [0, span); multiple edges between the same
// pair and (rarely) self-loops are allowed, exercising the miners'
// rejection paths.
func RandomGraph(rng *rand.Rand, n, m int, span int64) *temporal.Graph {
	edges := make([]temporal.Edge, m)
	for i := range edges {
		src := temporal.NodeID(rng.Intn(n))
		dst := temporal.NodeID(rng.Intn(n))
		edges[i] = temporal.Edge{Src: src, Dst: dst, Time: temporal.Timestamp(rng.Int63n(span))}
	}
	return temporal.MustNewGraph(edges)
}

// RandomConnectedMotif builds a random motif with the given edge count and
// δ whose edge sequence keeps a connected prefix (each edge after the
// first shares at least one node with an earlier edge) — the common case
// in practice and in the paper's M1–M4.
func RandomConnectedMotif(rng *rand.Rand, edges int, delta temporal.Timestamp) *temporal.Motif {
	maxNodes := edges + 1
	used := 2 // nodes 0 and 1 exist after the first edge
	me := make([]temporal.MotifEdge, 0, edges)
	me = append(me, temporal.MotifEdge{Src: 0, Dst: 1})
	for len(me) < edges {
		// Pick one endpoint among used nodes, the other either used or new.
		a := temporal.NodeID(rng.Intn(used))
		var b temporal.NodeID
		if used < maxNodes && rng.Intn(2) == 0 {
			b = temporal.NodeID(used)
			used++
		} else {
			b = temporal.NodeID(rng.Intn(used))
			if b == a {
				b = (b + 1) % temporal.NodeID(used)
			}
		}
		if a == b {
			continue
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		me = append(me, temporal.MotifEdge{Src: a, Dst: b})
	}
	return temporal.MustNewMotif("rand", delta, me)
}

// RandomMotif builds a random motif that may have a disconnected edge
// sequence, exercising the "neither endpoint mapped" search path
// (Algorithm 1 line 37).
func RandomMotif(rng *rand.Rand, edges int, delta temporal.Timestamp) *temporal.Motif {
	for {
		nodes := 2 + rng.Intn(edges+1)
		me := make([]temporal.MotifEdge, edges)
		ok := true
		seen := make([]bool, nodes)
		for i := range me {
			a := temporal.NodeID(rng.Intn(nodes))
			b := temporal.NodeID(rng.Intn(nodes))
			if a == b {
				b = (b + 1) % temporal.NodeID(nodes)
			}
			me[i] = temporal.MotifEdge{Src: a, Dst: b}
			seen[a] = true
			seen[b] = true
		}
		for _, s := range seen {
			if !s {
				ok = false // would leave a gap in the node-ID range
			}
		}
		if !ok {
			continue
		}
		m, err := temporal.NewMotif("rand", delta, me)
		if err != nil {
			continue
		}
		return m
	}
}

// CheckListLayout compares g against the per-node list layout graphs had
// before the flat CSR: edges copied and stably sorted by time, and one
// ascending edge-index list per node and direction, built by appending
// edge indices in order. It returns nil when g's edges, node count and
// every OutEdges/InEdges list equal that layout built from edges, which
// may be in any order (ties keep their order in edges).
func CheckListLayout(g *temporal.Graph, edges []temporal.Edge) error {
	sorted := append([]temporal.Edge(nil), edges...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	n := 0
	for _, e := range sorted {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	out := make([][]temporal.EdgeID, n)
	in := make([][]temporal.EdgeID, n)
	for i, e := range sorted {
		out[e.Src] = append(out[e.Src], temporal.EdgeID(i))
		in[e.Dst] = append(in[e.Dst], temporal.EdgeID(i))
	}
	if g.NumNodes() != n {
		return fmt.Errorf("NumNodes = %d, want %d", g.NumNodes(), n)
	}
	if !slices.Equal(g.Edges, sorted) {
		return fmt.Errorf("edges differ: got %v, want %v", g.Edges, sorted)
	}
	for u := 0; u < n; u++ {
		if got := g.OutEdges(temporal.NodeID(u)); !slices.Equal(got, out[u]) {
			return fmt.Errorf("OutEdges(%d) = %v, want %v", u, got, out[u])
		}
		if got := g.InEdges(temporal.NodeID(u)); !slices.Equal(got, in[u]) {
			return fmt.Errorf("InEdges(%d) = %v, want %v", u, got, in[u])
		}
	}
	return nil
}
