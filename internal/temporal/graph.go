// Package temporal provides the temporal graph and temporal motif data
// structures used throughout the Mint reproduction.
//
// A temporal graph is a multiset of directed, timestamped edges. Following
// Mackey et al. and the Mint paper (§II-D), the primary representation is a
// temporal edge list sorted by timestamp, plus a compressed per-node
// structure that stores, for every node, the *indices* of its outgoing and
// incoming temporal edges (not neighbor IDs). Because the global edge list
// is sorted by time, each per-node index list is simultaneously sorted by
// time and by edge index — a property the mining algorithms and the
// accelerator's search-index memoization (§VI-A) both rely on.
package temporal

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a node in a temporal graph.
type NodeID int32

// EdgeID is an index into a Graph's temporal edge list. Because the edge
// list is sorted by timestamp, comparing EdgeIDs compares times.
type EdgeID int32

// InvalidEdge is the sentinel for "no edge" (paper: eG = -1).
const InvalidEdge EdgeID = -1

// InvalidNode is the sentinel for "no node" (paper: map entries of -1).
const InvalidNode NodeID = -1

// Timestamp is a point in time. The unit is dataset-defined (the paper's
// SNAP datasets use seconds); only differences and ordering matter.
type Timestamp int64

// Edge is a single temporal edge: a directed interaction from Src to Dst
// at time Time.
type Edge struct {
	Src  NodeID
	Dst  NodeID
	Time Timestamp
}

// Graph is an immutable temporal graph in the paper's §II-D layout.
//
// Edges is sorted by (Time, original order). The per-node adjacency is a
// flat CSR: the indices of the edges leaving u are out[outOff[u]:outOff[u+1]],
// ascending, and the indices of the edges entering v are
// in[inOff[v]:inOff[v+1]], ascending. Both offset arrays have NumNodes()+1
// entries. Read the adjacency through OutEdges and InEdges. Construct with
// NewGraph, or with FromSorted when the edges are already in time order.
type Graph struct {
	Edges []Edge

	outOff, inOff []int32
	out, in       []EdgeID

	numNodes int
}

// NewGraph builds a Graph from an arbitrary edge multiset. The input slice
// is not retained; edges are copied and stably sorted by timestamp. Node
// IDs must be non-negative; the node count is 1 + the maximum node ID seen
// (isolated smaller IDs simply have empty adjacency).
func NewGraph(edges []Edge) (*Graph, error) {
	for i, e := range edges {
		if e.Src < 0 || e.Dst < 0 {
			return nil, fmt.Errorf("temporal: edge %d has negative node id (%d->%d)", i, e.Src, e.Dst)
		}
	}
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	slices.SortStableFunc(sorted, func(a, b Edge) int { return cmp.Compare(a.Time, b.Time) })
	return FromSorted(sorted)
}

// FromSorted builds a Graph that adopts edges as its edge list: no copy,
// no sort. edges must already be in time order (non-decreasing Time) with
// non-negative node IDs; one pass checks both. The graph keeps
// edges[:len(edges):len(edges)], so the caller may go on appending to its
// own slice, but must never write the elements the graph now holds.
func FromSorted(edges []Edge) (*Graph, error) {
	if len(edges) > math.MaxInt32 {
		return nil, fmt.Errorf("temporal: %d edges exceed the int32 edge-id space", len(edges))
	}
	maxNode := NodeID(-1)
	for i, e := range edges {
		if e.Src < 0 || e.Dst < 0 {
			return nil, fmt.Errorf("temporal: edge %d has negative node id (%d->%d)", i, e.Src, e.Dst)
		}
		if i > 0 && e.Time < edges[i-1].Time {
			return nil, fmt.Errorf("temporal: edges out of time order at %d", i)
		}
		maxNode = max(maxNode, e.Src, e.Dst)
	}
	n := int(maxNode) + 1
	g := &Graph{
		Edges:    edges[:len(edges):len(edges)],
		outOff:   make([]int32, n+1),
		inOff:    make([]int32, n+1),
		out:      make([]EdgeID, len(edges)),
		in:       make([]EdgeID, len(edges)),
		numNodes: n,
	}
	// Counting sort: degrees into off[u+1], prefix sums make off[u] the
	// start of u's run, the fill advances off[u] to the end of u's run
	// (the start of u+1's), and one shift restores the starts.
	for _, e := range edges {
		g.outOff[int(e.Src)+1]++
		g.inOff[int(e.Dst)+1]++
	}
	for u := 1; u <= n; u++ {
		g.outOff[u] += g.outOff[u-1]
		g.inOff[u] += g.inOff[u-1]
	}
	for i, e := range edges {
		g.out[g.outOff[e.Src]] = EdgeID(i)
		g.outOff[e.Src]++
		g.in[g.inOff[e.Dst]] = EdgeID(i)
		g.inOff[e.Dst]++
	}
	copy(g.outOff[1:], g.outOff[:n])
	copy(g.inOff[1:], g.inOff[:n])
	g.outOff[0], g.inOff[0] = 0, 0
	return g, nil
}

// MustNewGraph is NewGraph but panics on error; for tests and examples
// with known-good inputs.
func MustNewGraph(edges []Edge) *Graph {
	g, err := NewGraph(edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes reports the number of nodes (1 + max node ID).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges reports the number of temporal edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Edge returns the temporal edge with index id.
func (g *Graph) Edge(id EdgeID) Edge { return g.Edges[id] }

// Time returns the timestamp of edge id.
func (g *Graph) Time(id EdgeID) Timestamp { return g.Edges[id].Time }

// OutEdges returns the (time-ordered) indices of edges leaving u.
// The returned slice is owned by the graph and must not be modified; its
// capacity ends at its length, so an append cannot reach the next node's.
func (g *Graph) OutEdges(u NodeID) []EdgeID {
	lo, hi := g.outOff[u], g.outOff[u+1]
	return g.out[lo:hi:hi]
}

// InEdges returns the (time-ordered) indices of edges entering v.
// The returned slice is owned by the graph and must not be modified; its
// capacity ends at its length, so an append cannot reach the next node's.
func (g *Graph) InEdges(v NodeID) []EdgeID {
	lo, hi := g.inOff[v], g.inOff[v+1]
	return g.in[lo:hi:hi]
}

// TimeSpan returns the difference between the last and first timestamps,
// or zero for graphs with fewer than two edges.
func (g *Graph) TimeSpan() Timestamp {
	if len(g.Edges) < 2 {
		return 0
	}
	return g.Edges[len(g.Edges)-1].Time - g.Edges[0].Time
}

// EdgeRange returns the half-open edge-index range [lo, hi) of edges
// whose timestamp t satisfies start <= t < end. Because Edges is sorted
// by time, the range is contiguous; it is empty (lo == hi) when no edge
// falls in the window. This is the timestamp→EdgeID lift the sharding
// layer uses to turn a root time window into a root index window.
func (g *Graph) EdgeRange(start, end Timestamp) (lo, hi EdgeID) {
	n := len(g.Edges)
	l := sort.Search(n, func(i int) bool { return g.Edges[i].Time >= start })
	h := sort.Search(n, func(i int) bool { return g.Edges[i].Time >= end })
	if h < l {
		h = l
	}
	return EdgeID(l), EdgeID(h)
}

// SearchAfter returns the position of the first entry in list whose edge
// index is strictly greater than after. Because per-node lists are sorted
// by edge index, this is the software binary search the paper's baselines
// perform on every candidate-gathering step (Algorithm 1 lines 31/33/35).
func SearchAfter(list []EdgeID, after EdgeID) int {
	return sort.Search(len(list), func(i int) bool { return list[i] > after })
}

// LinearSearchAfter is the streaming variant the Mint search engine uses
// in hardware (§V-B: "Mint employs linear search"): it scans from position
// start and returns the first position whose edge index exceeds after,
// along with the number of entries examined. It assumes list[start:] is
// sorted ascending.
func LinearSearchAfter(list []EdgeID, start int, after EdgeID) (pos, scanned int) {
	i := start
	for i < len(list) && list[i] <= after {
		i++
	}
	return i, i - start + boolToInt(i < len(list))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DegreeStats summarizes a degree distribution; used by the dataset
// tooling (Table I) and the memoization analysis (§VIII-A, which relates
// memoization benefit to the size of the largest neighborhoods).
type DegreeStats struct {
	Max        int
	Mean       float64
	P50        int
	P90        int
	P99        int
	Top10Mean  float64 // mean size of the largest 10% of neighborhoods
	NumNonZero int
}

// OutDegreeStats computes DegreeStats over per-node out-neighborhood sizes.
func (g *Graph) OutDegreeStats() DegreeStats { return degreeStats(g.outOff) }

// InDegreeStats computes DegreeStats over per-node in-neighborhood sizes.
func (g *Graph) InDegreeStats() DegreeStats { return degreeStats(g.inOff) }

// degreeStats summarizes the run lengths of a CSR offset array.
func degreeStats(off []int32) DegreeStats {
	degs := make([]int, 0, len(off))
	total := 0
	for u := 1; u < len(off); u++ {
		if d := int(off[u] - off[u-1]); d > 0 {
			degs = append(degs, d)
			total += d
		}
	}
	if len(degs) == 0 {
		return DegreeStats{}
	}
	sort.Ints(degs)
	pct := func(p float64) int { return degs[min(len(degs)-1, int(p*float64(len(degs))))] }
	top10 := degs[len(degs)-max(1, len(degs)/10):]
	t10sum := 0
	for _, d := range top10 {
		t10sum += d
	}
	return DegreeStats{
		Max:        degs[len(degs)-1],
		Mean:       float64(total) / float64(len(degs)),
		P50:        pct(0.50),
		P90:        pct(0.90),
		P99:        pct(0.99),
		Top10Mean:  float64(t10sum) / float64(len(top10)),
		NumNonZero: len(degs),
	}
}

// EdgesPerDelta estimates k, the expected number of edges occurring within
// a δ window (§III-A uses k in the complexity bound O(|E_G|·k^(|E_M|-1))).
func (g *Graph) EdgesPerDelta(delta Timestamp) float64 {
	span := g.TimeSpan()
	if span <= 0 {
		return float64(g.NumEdges())
	}
	return float64(g.NumEdges()) * float64(delta) / float64(span)
}

// Validate checks internal invariants: endpoint IDs within the node
// range, offset tables sized to the node count and monotone over the
// index arrays, edges sorted by time, and adjacency lists in-range,
// consistent, and index-sorted. It is used by property tests and runs
// after every loader (ReadSNAP), so a corrupted or hand-built graph fails
// loudly here instead of as an index panic — or a silent wrong count —
// deep inside a miner.
func (g *Graph) Validate() error {
	n := g.numNodes
	if n < 0 {
		return fmt.Errorf("temporal: negative node count %d", n)
	}
	if len(g.outOff) != n+1 || len(g.inOff) != n+1 {
		return fmt.Errorf("temporal: offset tables sized %d/%d for %d nodes",
			len(g.outOff), len(g.inOff), n)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return fmt.Errorf("temporal: edge %d endpoints (%d -> %d) outside node range [0,%d)",
				i, e.Src, e.Dst, n)
		}
		if i > 0 && e.Time < g.Edges[i-1].Time {
			return fmt.Errorf("temporal: edges out of time order at %d", i)
		}
	}
	if err := g.validateAdj("out", g.outOff, g.out, func(e Edge) NodeID { return e.Src }); err != nil {
		return err
	}
	return g.validateAdj("in", g.inOff, g.in, func(e Edge) NodeID { return e.Dst })
}

// validateAdj checks one direction's CSR: offsets start at 0, never
// decrease and end at the index array's length, which covers the edge
// list exactly; every node's run is strictly increasing, in range and
// holds only edges whose endpoint (end) is that node.
func (g *Graph) validateAdj(dir string, off []int32, idx []EdgeID, end func(Edge) NodeID) error {
	if off[0] != 0 || int(off[len(off)-1]) != len(idx) {
		return fmt.Errorf("temporal: %s offsets span [%d,%d), index array holds %d", dir, off[0], off[len(off)-1], len(idx))
	}
	if len(idx) != len(g.Edges) {
		return fmt.Errorf("temporal: %s lists do not cover edge list", dir)
	}
	for u := 0; u < g.numNodes; u++ {
		if off[u+1] < off[u] || int(off[u+1]) > len(idx) {
			return fmt.Errorf("temporal: %s offsets of node %d out of order", dir, u)
		}
		l := idx[off[u]:off[u+1]]
		for i, id := range l {
			if id < 0 || int(id) >= len(g.Edges) {
				return fmt.Errorf("temporal: %s list of node %d has edge id %d outside [0,%d)", dir, u, id, len(g.Edges))
			}
			if i > 0 && l[i-1] >= id {
				return fmt.Errorf("temporal: %s list of node %d not strictly increasing", dir, u)
			}
			if end(g.Edges[id]) != NodeID(u) {
				return fmt.Errorf("temporal: %s list of node %d contains foreign edge %d", dir, u, id)
			}
		}
	}
	return nil
}
