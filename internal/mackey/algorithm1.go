package mackey

import (
	"time"

	"mint/internal/runctl"
	"mint/internal/temporal"
)

// MineAlgorithm1 counts δ-temporal motif instances of m in g using an
// iterative miner that mirrors the paper's Algorithm 1 structure: an
// explicit edge stack (eStack), per-node mapped-edge counts (eCount) that
// govern when node mappings are freed, the motif end-time bound t′, and a
// cursor-driven backtracking loop (eG = eStack.pop() + 1). It is
// functionally identical to Mine; property tests enforce the equivalence.
func MineAlgorithm1(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	a := acquireAlgo1(g, m, opts)
	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	a.run()
	res := a.finish()
	a.release()
	publishRun(opts, 0, res, "mackey.algorithm1", start)
	return res
}

type algo1 struct {
	g    *temporal.Graph
	m    *temporal.Motif
	opts Options

	m2g    []temporal.NodeID
	g2m    []temporal.NodeID
	eCount []int32
	eStack []temporal.EdgeID
	match  []int32 // the reused slice Probe.Match receives

	// wc memoizes per-node filter bounds (see worker.wc).
	wc temporal.WindowCache

	tPrime temporal.Timestamp // t′: exclusive-inclusive end-time bound
	rootEG temporal.EdgeID
	stats  Stats

	sinceCheck     int32
	stopped        bool
	flushedMatches int64
}

// checkpoint flushes progress into the shared controller and latches any
// stop request; one loop iteration of run() is one node expansion here.
func (a *algo1) checkpoint() {
	nodes := int64(a.sinceCheck)
	a.sinceCheck = 0
	a.stats.NodesExpanded += nodes
	if a.opts.Ctl == nil {
		return
	}
	dm := a.stats.Matches - a.flushedMatches
	a.flushedMatches = a.stats.Matches
	if a.opts.Ctl.Checkpoint(nodes, dm) {
		a.stopped = true
	}
}

func (a *algo1) finish() Result {
	truncated := a.stopped
	a.checkpoint()
	a.stats.SearchCacheHits = a.wc.Hits()
	a.stats.SearchCacheMisses = a.wc.Misses()
	res := Result{Matches: a.stats.Matches, Stats: a.stats, Truncated: truncated}
	if truncated {
		res.StopReason = a.opts.Ctl.Reason()
	}
	return res
}

// run is the outer while-true loop of Algorithm 1 (lines 7–24).
func (a *algo1) run() {
	a.tPrime = maxTimestamp
	cursor := temporal.EdgeID(0) // first graph edge index to consider next
	for {
		a.sinceCheck++
		if a.sinceCheck >= runctl.CheckInterval {
			a.checkpoint()
			if a.stopped {
				return
			}
		}
		eM := len(a.eStack) // next motif edge to match
		eG := a.findNextMatchingEdge(eM, cursor)
		if eG != temporal.InvalidEdge {
			a.updateDataStructures(eM, eG)
			if len(a.eStack) == a.m.NumEdges() {
				// Leaf of the search tree: a complete motif (line 44–45).
				a.stats.Matches++
				if a.opts.Probe != nil {
					a.match = edgeIDsAsInt32(a.match, a.eStack)
					a.opts.Probe.Match(a.match)
				}
				if a.opts.Ctl.MatchBudgeted() {
					a.checkpoint()
					if a.stopped {
						return
					}
				}
				cursor = a.backtrack() // resume the sibling of the leaf
				if cursor == temporal.InvalidEdge {
					return
				}
			} else {
				cursor = eG + 1
			}
			continue
		}
		// No match for motif edge eM: void the previous mapping (line 12).
		cursor = a.backtrack()
		if cursor == temporal.InvalidEdge {
			return
		}
	}
}

// backtrack pops the most recent mapping and returns the edge cursor to
// resume from (the popped edge + 1), or InvalidEdge when the stack is
// empty and every root has been tried — i.e. mining is complete
// (Algorithm 1 lines 12–22).
func (a *algo1) backtrack() temporal.EdgeID {
	a.stats.BacktrackTasks++
	if len(a.eStack) == 0 {
		return temporal.InvalidEdge
	}
	top := a.eStack[len(a.eStack)-1]
	a.eStack = a.eStack[:len(a.eStack)-1]
	e := a.g.Edges[top]
	a.eCount[e.Src]--
	a.eCount[e.Dst]--
	if a.eCount[e.Src] == 0 {
		uM := a.g2m[e.Src]
		a.g2m[e.Src] = temporal.InvalidNode
		a.m2g[uM] = temporal.InvalidNode
	}
	if a.eCount[e.Dst] == 0 {
		vM := a.g2m[e.Dst]
		a.g2m[e.Dst] = temporal.InvalidNode
		a.m2g[vM] = temporal.InvalidNode
	}
	if len(a.eStack) == 0 {
		a.tPrime = maxTimestamp // line 15
	}
	return top + 1
}

// updateDataStructures adds the mapping of motif edge eM to graph edge eG
// (Algorithm 1 lines 43–53).
func (a *algo1) updateDataStructures(eM int, eG temporal.EdgeID) {
	a.stats.BookkeepTasks++
	e := a.g.Edges[eG]
	me := a.m.Edges[eM]
	a.m2g[me.Src] = e.Src
	a.m2g[me.Dst] = e.Dst
	a.g2m[e.Src] = me.Src
	a.g2m[e.Dst] = me.Dst
	a.eCount[e.Src]++
	a.eCount[e.Dst]++
	if len(a.eStack) == 0 {
		a.tPrime = e.Time + a.m.Delta // line 52: bound on the motif's end time
		a.rootEG = eG
		a.stats.RootTasks++
	}
	a.eStack = append(a.eStack, eG)
}

// findNextMatchingEdge returns the first graph edge with index ≥ cursor
// that structurally and temporally matches motif edge eM, or InvalidEdge
// (Algorithm 1 lines 26–41).
func (a *algo1) findNextMatchingEdge(eM int, cursor temporal.EdgeID) temporal.EdgeID {
	a.stats.SearchTasks++
	me := a.m.Edges[eM]
	uG := a.m2g[me.Src]
	vG := a.m2g[me.Dst]

	var list []temporal.EdgeID
	var node temporal.NodeID
	var out bool
	switch {
	case uG != temporal.InvalidNode && vG != temporal.InvalidNode:
		outList := a.g.OutEdges(uG)
		inList := a.g.InEdges(vG)
		if len(outList) <= len(inList) {
			list, node, out = outList, uG, true
		} else {
			list, node, out = inList, vG, false
		}
	case uG != temporal.InvalidNode:
		list, node, out = a.g.OutEdges(uG), uG, true
	case vG != temporal.InvalidNode:
		list, node, out = a.g.InEdges(vG), vG, false
	default:
		// Entire edge list (line 37); this path also generates root tasks.
		for id := int(cursor); id < a.g.NumEdges(); id++ {
			e := a.g.Edges[id]
			if e.Time > a.tPrime {
				a.stats.TimePrunedScans++
				break
			}
			a.stats.CandidateEdges++
			a.stats.Branches++
			if a.validCandidate(me, e) {
				return temporal.EdgeID(id)
			}
		}
		return temporal.InvalidEdge
	}

	start := a.wc.SearchAfter(list, out, node, cursor-1)
	a.stats.BinarySearches++
	a.stats.NeighborEntries += int64(len(list))
	a.stats.NeighborEntriesUseful += int64(len(list) - start)
	if a.opts.Probe != nil {
		a.opts.Probe.NeighborhoodAccess(int32(node), out, len(list), start, int32(a.rootEG))
	}
	for i := start; i < len(list); i++ {
		id := list[i]
		e := a.g.Edges[id]
		if e.Time > a.tPrime {
			a.stats.TimePrunedScans++
			break
		}
		a.stats.CandidateEdges++
		a.stats.Branches++
		if a.validCandidate(me, e) {
			return id
		}
	}
	return temporal.InvalidEdge
}

// validCandidate checks the structural constraints of mapping graph edge e
// to motif edge me under the current partial mapping: mapped endpoints
// must agree, unmapped endpoints must bind fresh graph nodes, and the two
// endpoints of one edge cannot bind to the same graph node.
func (a *algo1) validCandidate(me temporal.MotifEdge, e temporal.Edge) bool {
	if e.Src == e.Dst {
		return false
	}
	uG := a.m2g[me.Src]
	vG := a.m2g[me.Dst]
	if uG != temporal.InvalidNode {
		if e.Src != uG {
			return false
		}
	} else if a.g2m[e.Src] != temporal.InvalidNode {
		return false
	}
	if vG != temporal.InvalidNode {
		if e.Dst != vG {
			return false
		}
	} else if a.g2m[e.Dst] != temporal.InvalidNode {
		return false
	}
	return true
}
