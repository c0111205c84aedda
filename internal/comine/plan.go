// Package comine implements Mayura-style temporal motif co-mining:
// several motifs are mined in ONE Algorithm-1 traversal per group
// instead of one traversal per motif. Motifs are first canonicalized
// (nodes relabeled in first-appearance order — counts are invariant
// under motif-node relabeling, so canonical and original motifs have
// identical instance sets), then grouped by δ and inserted into a
// prefix-sharing trie (mackey.Trie) over their canonical edge
// sequences. Because a canonical first edge is always 0→1, every motif
// in a δ-group shares at least the root level of the trie; the mackey
// worker walks the trie once per root edge, forking per-motif
// bookkeeping only where the canonical sequences diverge. A search-tree
// prefix shared by k motifs is expanded once instead of k times — the
// redundant-work recovery Mayura reports for the Paranjape M1–M4 family.
// Star members (M4) can leave the trie altogether: a run that routes
// them counts each with a closed-form kernel and walks the group's Rest
// trie of the other members.
//
// The planner is pure data: PlanSet never mines. Correctness of the
// co-mined walk rests on a structural invariant established here — the
// trie's terminal sets partition the input motif indexes exactly
// (every input index appears at exactly one trie node, duplicates
// included), which is what FuzzMotifSetPlan fuzzes.
package comine

import (
	"fmt"
	"slices"

	"mint/internal/mackey"
	"mint/internal/temporal"
)

// Member is one input motif's slot in a group: its position in the
// original PlanSet input (results are reported under this index), the
// motif itself, and its canonical edge sequence.
type Member struct {
	// Index is the motif's position in the PlanSet input slice.
	Index int
	// Motif is the original (uncanonicalized) motif.
	Motif *temporal.Motif
	// Canon is the canonical edge sequence: node IDs relabeled in
	// first-appearance order. Counting Canon and Motif.Edges against a
	// graph yields identical totals.
	Canon []temporal.MotifEdge
	// NumNodes is the number of distinct canonical nodes.
	NumNodes int
	// Star marks a star motif (mackey.StarOf): on a run that routes it,
	// a closed-form kernel counts it instead of the trie.
	Star bool
}

// Group is one δ-homogeneous co-mining unit: members share Delta and
// are mined by a single traversal of the embedded trie. The trie root's
// children all carry the canonical edge 0→1 (there is exactly one child
// by construction).
type Group struct {
	mackey.Trie
	// Rest is the trie of the group's non-star members, walked when a
	// run sends the star members to kernels (Root.Passing is 0 when
	// every member is a star); nil when the group has no star member.
	Rest *mackey.Trie
	// Members lists the group's motifs in input order.
	Members []Member
	// ForkPoints counts trie nodes with more than one child — the
	// divergence points where per-motif bookkeeping forks.
	ForkPoints int
	// TrieEdges counts trie nodes below the root (edges the co-mined
	// traversal matches); TotalEdges sums the members' sequence lengths
	// (edges a per-motif sweep would match). 1 - TrieEdges/TotalEdges
	// is the group's static shared-prefix ratio.
	TrieEdges  int
	TotalEdges int
}

// Plan is the full co-mining plan for one motif set.
type Plan struct {
	// Motifs is the input slice, verbatim; PerMotif results index it.
	Motifs []*temporal.Motif
	// Groups holds one entry per distinct δ, in first-appearance order
	// (deterministic for a given input order).
	Groups []*Group
}

// PlanSet groups motifs into a co-mining plan. Duplicates are legal
// (they land on one trie path with both indexes terminal); a nil or
// empty input yields an empty plan; nil entries are rejected. The
// returned plan's terminal sets partition the input indexes exactly.
func PlanSet(motifs []*temporal.Motif) (*Plan, error) {
	plan := &Plan{Motifs: motifs}
	byDelta := map[temporal.Timestamp]*Group{}
	for i, m := range motifs {
		if m == nil {
			return nil, fmt.Errorf("comine: motif %d is nil", i)
		}
		canon, numNodes := canonicalize(m)
		grp := byDelta[m.Delta]
		if grp == nil {
			grp = &Group{Trie: mackey.Trie{Delta: m.Delta, Root: &mackey.Node{}}}
			byDelta[m.Delta] = grp
			plan.Groups = append(plan.Groups, grp)
		}
		grp.insert(i, m, canon, numNodes)
	}
	for _, grp := range plan.Groups {
		grp.ForkPoints = countForks(grp.Root)
		grp.NumMotifs = len(motifs)
		if !slices.ContainsFunc(grp.Members, func(mem Member) bool { return mem.Star }) {
			continue
		}
		grp.Rest = &mackey.Trie{Root: &mackey.Node{}, Delta: grp.Delta, NumMotifs: len(motifs)}
		for _, mem := range grp.Members {
			if !mem.Star {
				insertPath(grp.Rest, mem.Index, mem.Canon, mem.NumNodes)
			}
		}
	}
	return plan, nil
}

// ForkPoints sums the divergence points across all groups.
func (p *Plan) ForkPoints() int {
	n := 0
	for _, g := range p.Groups {
		n += g.ForkPoints
	}
	return n
}

// SharedRatio is the plan's static shared-prefix ratio: the fraction
// of per-motif edge matches the tries fold away (0 when nothing is
// shared, approaching 1 for near-identical motif sets).
func (p *Plan) SharedRatio() float64 {
	trie, total := 0, 0
	for _, g := range p.Groups {
		trie += g.TrieEdges
		total += g.TotalEdges
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(trie)/float64(total)
}

// canonicalize relabels m's nodes in first-appearance order over the
// chronological edge sequence. The first canonical edge is always 0→1
// (motifs are loop-free), so same-δ motifs always share trie depth 1.
func canonicalize(m *temporal.Motif) ([]temporal.MotifEdge, int) {
	relabel := make(map[temporal.NodeID]temporal.NodeID, m.NumNodes())
	next := temporal.NodeID(0)
	label := func(u temporal.NodeID) temporal.NodeID {
		if v, ok := relabel[u]; ok {
			return v
		}
		v := next
		next++
		relabel[u] = v
		return v
	}
	out := make([]temporal.MotifEdge, m.NumEdges())
	for i, e := range m.Edges {
		// Src is labeled before Dst, matching the bind order of the
		// mackey worker's root task.
		s := label(e.Src)
		d := label(e.Dst)
		out[i] = temporal.MotifEdge{Src: s, Dst: d}
	}
	return out, int(next)
}

// insert threads one member's canonical sequence into the group trie.
func (g *Group) insert(idx int, m *temporal.Motif, canon []temporal.MotifEdge, numNodes int) {
	g.TrieEdges += insertPath(&g.Trie, idx, canon, numNodes)
	_, star := mackey.StarOf(m)
	g.Members = append(g.Members, Member{Index: idx, Motif: m, Canon: canon, NumNodes: numNodes, Star: star})
	g.TotalEdges += len(canon)
}

// insertPath threads a canonical sequence into t, terminal for idx, and
// returns the number of trie nodes it created.
func insertPath(t *mackey.Trie, idx int, canon []temporal.MotifEdge, numNodes int) int {
	created := 0
	n := t.Root
	n.Passing++
	for d, e := range canon {
		var child *mackey.Node
		for _, c := range n.Children {
			if c.Edge == e {
				child = c
				break
			}
		}
		if child == nil {
			child = &mackey.Node{Edge: e, Depth: d + 1}
			n.Children = append(n.Children, child)
			created++
		}
		child.Passing++
		n = child
	}
	n.Terminal = append(n.Terminal, idx)
	t.MaxMotifNodes = max(t.MaxMotifNodes, numNodes)
	t.MaxMotifEdges = max(t.MaxMotifEdges, len(canon))
	return created
}

func countForks(n *mackey.Node) int {
	forks := 0
	if len(n.Children) > 1 {
		forks++
	}
	for _, c := range n.Children {
		forks += countForks(c)
	}
	return forks
}
