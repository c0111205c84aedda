package mackey

import "mint/internal/temporal"

// Node is one node of a mining trie: the motif edge matched at this
// depth, the continuations, and the motif indexes whose edge sequence
// ends exactly here. The root is a virtual depth-0 node whose Edge is
// unused. A single motif is the one-path trie; a co-mined group
// (internal/comine) threads every same-δ motif through one trie, so a
// search-tree prefix shared by k motifs is expanded once, not k times.
type Node struct {
	// Edge is the motif edge this node matches (depth ≥ 1).
	Edge temporal.MotifEdge
	// Depth is the number of motif edges matched once this node's edge
	// is bound (the virtual root has depth 0); the worker files the
	// matched graph edge at this position of the match sequence.
	Depth int
	// Children are the distinct next motif edges.
	Children []*Node
	// Terminal lists the motif indexes completing at this node.
	// Non-leaf terminals are legal (one motif a prefix of another).
	Terminal []int
	// Passing counts motifs whose sequence passes through or ends at
	// this node — the shared-work multiplicity: an expansion of a node
	// with Passing = k replaces k independent per-motif expansions.
	Passing int
}

// Trie is one δ-homogeneous mining plan: the worker binds each root edge
// to the root's children and walks the trie from there under the
// deadline root.Time + Delta.
type Trie struct {
	// Root is the virtual depth-0 node.
	Root *Node
	// Delta is the time window shared by every motif in the trie.
	Delta temporal.Timestamp
	// MaxMotifNodes / MaxMotifEdges bound the worker state: node IDs in
	// trie edges are below MaxMotifNodes, and no path is longer than
	// MaxMotifEdges.
	MaxMotifNodes int
	MaxMotifEdges int
	// NumMotifs sizes the per-motif count cells; every Terminal index
	// lies in [0, NumMotifs).
	NumMotifs int
}

// soloTerminal is the terminal set of a one-path trie's leaf. Shared and
// never written.
var soloTerminal = []int{0}

// loadMotif builds m's one-path trie in the worker's pooled storage —
// node d matches motif edge d-1 and the leaf is terminal for index 0 —
// so single-motif runs stay allocation-free in steady state.
func (w *worker) loadMotif(m *temporal.Motif) *Trie {
	n := m.NumEdges()
	if cap(w.path) < n+1 {
		w.path = make([]Node, n+1)
		w.kids = make([]*Node, n+1)
	}
	w.path = w.path[:n+1]
	for d := range w.path {
		nd := &w.path[d]
		*nd = Node{Depth: d, Passing: 1}
		if d > 0 {
			nd.Edge = m.Edges[d-1]
		}
		if d < n {
			w.kids[d] = &w.path[d+1]
			nd.Children = w.kids[d : d+1 : d+1]
		}
	}
	w.path[n].Terminal = soloTerminal
	w.solo = Trie{Root: &w.path[0], Delta: m.Delta, MaxMotifNodes: m.NumNodes(), MaxMotifEdges: n, NumMotifs: 1}
	return &w.solo
}
