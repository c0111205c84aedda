package mackey

import (
	"context"
	"math"
	"math/bits"
	"time"

	"mint/internal/faultinject"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Options configures a mining run.
type Options struct {
	// Probe receives fine-grained events; may be nil. A Probe sees every
	// match, so it turns off bulk leaf counting (worker.countLeaves).
	Probe Probe

	// Memo enables software search index memoization using the given
	// table (shared across workers in parallel runs); nil disables it.
	Memo *MemoTable

	// Workers sets the degree of parallelism for the parallel miners;
	// values < 1 mean GOMAXPROCS.
	Workers int

	// Ctl carries the run's cancellation and budget state; nil means the
	// run is uncancellable and unbounded (the historical behavior).
	// Workers poll it cooperatively every runctl.CheckInterval tree
	// expansions, so the hot path stays within its regression budget.
	Ctl *runctl.Controller

	// Obs, when non-nil, receives the run's counters (folded once per
	// worker at run end, sharded by worker index — see obs.go for the
	// metric names). The mining hot path never touches it.
	Obs *obs.Registry

	// Trace, when non-nil, is the request's open mine span: the run
	// records its coarse spans (one per run plus one per parallel
	// worker) as closed children of it.
	Trace *obs.SpanRef

	// Roots, when non-nil, restricts the run to root edges in the
	// half-open index range [Roots.Lo, Roots.Hi). Motif instances are
	// counted iff their root (earliest) edge lies in the range; later
	// motif edges may come from anywhere in the graph, so restricted runs
	// over disjoint ranges sum exactly to the unrestricted count. This is
	// the engine-level hook behind the δ-aware shard partition.
	Roots *RootRange

	// Supervision, when non-nil, supervises the chunk scheduler's runs
	// (see SupervisorOptions): failed chunks are retried, then
	// quarantined, and finished chunks checkpointed. The sequential
	// miners ignore it.
	Supervision *Supervision
}

// RootRange is a half-open range of root edge indices, [Lo, Hi).
type RootRange struct {
	Lo, Hi temporal.EdgeID
}

// rootSpan resolves the effective root index range for a graph with n
// edges: the whole space when Roots is nil, the clamped range otherwise.
func (o *Options) rootSpan(n int) (lo, hi int) {
	if o.Roots == nil {
		return 0, n
	}
	lo, hi = int(o.Roots.Lo), int(o.Roots.Hi)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Result is the outcome of a mining run.
type Result struct {
	Matches int64
	Stats   Stats

	// Truncated reports that the run stopped before exhausting the search
	// space (cancellation, deadline, or budget). Matches and Stats then
	// hold the exact partial work done up to the stop point — a lower
	// bound on the full count, not garbage.
	Truncated bool
	// StopReason says why a truncated run stopped (runctl.NotStopped
	// when Truncated is false).
	StopReason runctl.Reason
}

// Mine counts δ-temporal motif instances of m in g using the recursive
// reference formulation of Mackey et al.'s chronological edge-driven DFS.
func Mine(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	var start time.Time
	if opts.Trace != nil {
		start = time.Now()
	}
	w := acquireWorker(g, m, nil, opts)
	lo, hi := opts.rootSpan(g.NumEdges())
	if plan := opts.Ctl.FaultPlan(); plan != nil {
		for root := lo; root < hi; root++ {
			if w.stopped {
				break
			}
			w.mineRootChaos(plan, temporal.EdgeID(root))
		}
	} else {
		for root := lo; root < hi; root++ {
			if w.stopped {
				break
			}
			w.mineRoot(temporal.EdgeID(root))
		}
	}
	res := w.finish()
	w.release()
	publishRun(opts, 0, res, "mackey.mine", start)
	return res
}

// MineCtx is Mine bounded by a context and a resource budget. A truncated
// run returns the exact partial count and stats accumulated so far; at a
// fixed node budget the sequential truncation point — and therefore the
// partial count — is deterministic across runs.
func MineCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) Result {
	if opts.Ctl == nil {
		opts.Ctl = controllerFor(ctx, b)
	}
	return Mine(g, m, opts)
}

// controllerFor builds a controller for (ctx, b), or nil when neither can
// ever fire — keeping the uncancellable fast path allocation-free.
func controllerFor(ctx context.Context, b runctl.Budget) *runctl.Controller {
	if (ctx == nil || ctx.Done() == nil) && b.Unlimited() {
		return nil
	}
	return runctl.New(ctx, b)
}

// worker holds the per-thread mining state: the trie it walks, the node
// mappings (m2g and g2m from Algorithm 1), one count cell per trie motif,
// and instrumentation counters. A worker expands complete search trees
// one root at a time; distinct workers never share mutable state except
// the (atomically updated) memo table.
type worker struct {
	g     *temporal.Graph
	roots []*Node // the trie's first-level nodes, bound to each root edge
	delta temporal.Timestamp
	opts  Options

	m2g []temporal.NodeID // motif node -> graph node, -1 if unmapped
	g2m []temporal.NodeID // graph node -> motif node, -1 if unmapped
	seq []temporal.EdgeID // matched graph edges by trie depth (eStack)

	// wc memoizes per-node phase-1 filter bounds across expansions and
	// root tasks; worker-owned, so the parallel miners stay race-free.
	wc temporal.WindowCache

	rootEG temporal.EdgeID
	stats  Stats

	// Cooperative cancellation state: sinceCheck counts tree expansions
	// since the last shared-state poll; stopped latches a stop request so
	// the recursion unwinds with one local branch per frame.
	sinceCheck     int32
	stopped        bool
	flushedMatches int64

	counts []int64 // matches per trie motif, indexed like Node.Terminal
	shared int64   // expansions at trie nodes with Passing > 1

	// countLeaves makes expand count the matches of a childless trie node
	// instead of visiting each one. It holds when no match is observed
	// one by one: no Probe, no match budget, and no memo table (the memo
	// baseline stays the paper's per-match CPU miner).
	countLeaves bool
	// match is the reused slice Probe.Match receives.
	match []int32

	// path, kids and solo hold the one-path trie of a single-motif run
	// (see loadMotif), reused across runs.
	path []Node
	kids []*Node
	solo Trie
}

// checkpoint flushes the worker's progress into the shared controller and
// latches any stop request. Called every runctl.CheckInterval expansions
// (and on each match under a match budget), so its cost is amortized away.
func (w *worker) checkpoint() {
	nodes := int64(w.sinceCheck)
	w.sinceCheck = 0
	w.stats.NodesExpanded += nodes
	if w.opts.Ctl == nil {
		return
	}
	dm := w.stats.Matches - w.flushedMatches
	w.flushedMatches = w.stats.Matches
	if w.opts.Ctl.Checkpoint(nodes, dm) {
		w.stopped = true
	}
}

// finish flushes any unreported progress and assembles the worker's
// Result. Truncation reflects whether a stop was observed during mining —
// a stop that fires only at this final flush (e.g. a budget reached on the
// very last expansion) does not mark an actually-complete run truncated.
func (w *worker) finish() Result {
	truncated := w.stopped
	w.checkpoint()
	w.foldCacheStats()
	w.stopped = truncated
	res := Result{Matches: w.stats.Matches, Stats: w.stats, Truncated: truncated}
	if truncated {
		res.StopReason = w.opts.Ctl.Reason()
	}
	return res
}

// foldCacheStats snapshots the window cache's counters into Stats so one
// Result (and the obs fold) carries them; both stay zero under the memo
// table, which replaces the cache.
func (w *worker) foldCacheStats() {
	w.stats.SearchCacheHits = w.wc.Hits()
	w.stats.SearchCacheMisses = w.wc.Misses()
}

// mineRootChaos is mineRoot under the run's fault plan (site
// "mackey.root", keyed by root edge ID). The sequential miner has no
// retry tier, so any injected fault — panic, error, or drop — stops the
// run with Reason FaultInjected: the partial count is explicitly
// Truncated, never silently short. Non-injected panics propagate.
func (w *worker) mineRootChaos(plan *faultinject.Plan, root temporal.EdgeID) {
	defer func() {
		if r := recover(); r != nil {
			if !faultinject.IsInjected(r) {
				panic(r)
			}
			w.opts.Ctl.Stop(runctl.FaultInjected)
			w.stopped = true
		}
	}()
	if err := plan.Fire("mackey.root", int64(root), 0); err != nil {
		w.opts.Ctl.Stop(runctl.FaultInjected)
		w.stopped = true
		return
	}
	w.mineRoot(root)
}

// mineRoot expands the complete search tree rooted at graph edge root:
// the root edge is bound as each first-level trie edge and the trie is
// walked from there with deadline root.Time + δ. Root tasks are exactly
// the paper's root book-keeping tasks (§IV-A).
func (w *worker) mineRoot(root temporal.EdgeID) {
	e := w.g.Edges[root]
	if e.Src == e.Dst {
		return // motif edges are loop-free; a self-loop can never map
	}
	w.stats.RootTasks++
	w.rootEG = root
	deadline := e.Time + w.delta
	for _, c := range w.roots {
		w.bind(c.Edge.Src, e.Src)
		w.bind(c.Edge.Dst, e.Dst)
		w.visit(c, root, deadline)
		w.unbind(c.Edge.Dst, e.Dst)
		w.unbind(c.Edge.Src, e.Src)
		w.stats.BacktrackTasks++
		if w.stopped {
			break
		}
	}
}

func (w *worker) bind(mu temporal.NodeID, gu temporal.NodeID) {
	w.m2g[mu] = gu
	w.g2m[gu] = mu
}

func (w *worker) unbind(mu temporal.NodeID, gu temporal.NodeID) {
	w.m2g[mu] = temporal.InvalidNode
	w.g2m[gu] = temporal.InvalidNode
}

// visit records the mapping of trie node n's edge to graph edge id (a
// book-keeping task) and continues the search from there: motifs
// terminal at n gain one match each (the point where per-motif
// bookkeeping forks), then every child edge is matched against graph
// edges after id and no later than deadline.
func (w *worker) visit(n *Node, id temporal.EdgeID, deadline temporal.Timestamp) {
	w.stats.BookkeepTasks++
	if w.stopped {
		return
	}
	w.sinceCheck++
	if w.sinceCheck >= runctl.CheckInterval {
		w.checkpoint()
		if w.stopped {
			return
		}
	}
	if n.Passing > 1 {
		w.shared++
	}
	w.seq[n.Depth-1] = id
	if len(n.Terminal) > 0 {
		for _, idx := range n.Terminal {
			w.counts[idx]++
		}
		w.stats.Matches += int64(len(n.Terminal))
		if (w.opts.Probe != nil || w.opts.Ctl.MatchBudgeted()) && w.report(n) {
			return
		}
	}
	// One child is the common case (every node of a single motif's path).
	// The expand call is the frame's last act and the fork loop lives out
	// of line, so visit need not spill its arguments around the call.
	if len(n.Children) == 1 {
		w.expand(n.Children[0], id, deadline)
	} else {
		w.fork(n.Children, id, deadline)
	}
}

// fork expands each child of a trie node in turn: the divergence point
// where co-mined motifs part ways.
func (w *worker) fork(children []*Node, last temporal.EdgeID, deadline temporal.Timestamp) {
	for _, c := range children {
		w.expand(c, last, deadline)
		if w.stopped {
			return
		}
	}
}

// report hands the matches completing at n to the probe, one call per
// terminal motif in the worker's reused match buffer, and polls the
// controller eagerly under a match budget so the sequential miner stops
// after exactly MaxMatches matches. It reports whether the run has
// stopped.
func (w *worker) report(n *Node) bool {
	if w.opts.Probe != nil {
		for range n.Terminal {
			w.match = edgeIDsAsInt32(w.match, w.seq[:n.Depth])
			w.opts.Probe.Match(w.match)
		}
	}
	if w.opts.Ctl.MatchBudgeted() {
		w.checkpoint()
	}
	return w.stopped
}

// expand matches trie node n's motif edge against graph edges later than
// last and no later than deadline, visiting n on every success. It is the
// recursive equivalent of the paper's FindNextMatchingEdge +
// UpdateDataStructures + backtracking loop, specialized into one
// candidate loop per neighborhood shape (Algorithm 1 lines 31–37) so the
// structural check and endpoint rebinding are inlined. A childless n in
// a counting run is a leaf scan: its successes are counted, not bound and
// visited, and charged once after the scan (chargeLeaves).
func (w *worker) expand(n *Node, last temporal.EdgeID, deadline temporal.Timestamp) {
	w.stats.SearchTasks++
	leaf := w.countLeaves && len(n.Children) == 0
	k := 0 // leaf matches counted by the scan
	me := n.Edge
	uG := w.m2g[me.Src]
	vG := w.m2g[me.Dst]
	g := w.g
	switch {
	case uG != temporal.InvalidNode && vG != temporal.InvalidNode:
		// Both endpoints mapped (line 31): scan the smaller of Nout(uG)
		// and Nin(vG), matching the other endpoint exactly.
		outList := g.OutEdges(uG)
		inList := g.InEdges(vG)
		if len(outList) <= len(inList) {
			list := outList
			start := w.scanStart(list, true, uG, last)
			i := start
			for ; i < len(list); i++ {
				id := list[i]
				e := g.Edges[id]
				if e.Time > deadline {
					w.stats.TimePrunedScans++
					break
				}
				if e.Dst != vG {
					continue
				}
				if leaf {
					k++
					continue
				}
				w.visit(n, id, deadline)
			}
			w.chargeScan(i - start)
		} else {
			list := inList
			start := w.scanStart(list, false, vG, last)
			i := start
			for ; i < len(list); i++ {
				id := list[i]
				e := g.Edges[id]
				if e.Time > deadline {
					w.stats.TimePrunedScans++
					break
				}
				if e.Src != uG {
					continue
				}
				if leaf {
					k++
					continue
				}
				w.visit(n, id, deadline)
			}
			w.chargeScan(i - start)
		}

	case uG != temporal.InvalidNode:
		// Source mapped (line 33): scan Nout(uG), destination must be free.
		list := g.OutEdges(uG)
		start := w.scanStart(list, true, uG, last)
		i := start
		for ; i < len(list); i++ {
			id := list[i]
			e := g.Edges[id]
			if e.Time > deadline {
				w.stats.TimePrunedScans++
				break
			}
			if w.g2m[e.Dst] != temporal.InvalidNode {
				continue
			}
			if leaf {
				k++
				continue
			}
			w.bind(me.Dst, e.Dst)
			w.visit(n, id, deadline)
			w.unbind(me.Dst, e.Dst)
		}
		w.chargeScan(i - start)

	case vG != temporal.InvalidNode:
		// Destination mapped (line 35): scan Nin(vG), source must be free.
		list := g.InEdges(vG)
		start := w.scanStart(list, false, vG, last)
		i := start
		for ; i < len(list); i++ {
			id := list[i]
			e := g.Edges[id]
			if e.Time > deadline {
				w.stats.TimePrunedScans++
				break
			}
			if w.g2m[e.Src] != temporal.InvalidNode {
				continue
			}
			if leaf {
				k++
				continue
			}
			w.bind(me.Src, e.Src)
			w.visit(n, id, deadline)
			w.unbind(me.Src, e.Src)
		}
		w.chargeScan(i - start)

	default:
		k = w.expandUnanchored(n, leaf, last, deadline)
	}
	if k > 0 {
		w.chargeLeaves(n, k)
	}
	w.stats.BacktrackTasks++
}

// chargeLeaves records k matches of the leaf n in one charge: exactly
// what k visits of n record in a run that does not stop during them. A
// deadline, cancel or node-budget stop is therefore seen after the leaf
// scan rather than after the match that crossed it.
func (w *worker) chargeLeaves(n *Node, k int) {
	w.stats.BookkeepTasks += int64(k)
	if n.Passing > 1 {
		w.shared += int64(k)
	}
	for _, idx := range n.Terminal {
		w.counts[idx] += int64(k)
	}
	w.stats.Matches += int64(k * len(n.Terminal))
	w.sinceCheck += int32(k)
	if w.sinceCheck >= runctl.CheckInterval {
		w.checkpoint()
	}
}

// expandUnanchored is expand with neither endpoint mapped (Algorithm 1
// line 37): the search space is the whole remaining edge list. Only
// reachable for motifs whose edge sequence is not connected-prefix; kept
// for full generality, out of line so the anchored loops stay compact.
// On a leaf scan it returns the matches counted instead of visited.
func (w *worker) expandUnanchored(n *Node, leaf bool, last temporal.EdgeID, deadline temporal.Timestamp) (k int) {
	me := n.Edge
	g := w.g
	for id := int(last) + 1; id < g.NumEdges(); id++ {
		e := g.Edges[id]
		if e.Time > deadline {
			w.stats.TimePrunedScans++
			break
		}
		w.stats.CandidateEdges++
		w.stats.Branches++
		if e.Src == e.Dst ||
			w.g2m[e.Src] != temporal.InvalidNode ||
			w.g2m[e.Dst] != temporal.InvalidNode {
			continue
		}
		if leaf {
			k++
			continue
		}
		w.bind(me.Src, e.Src)
		w.bind(me.Dst, e.Dst)
		w.visit(n, temporal.EdgeID(id), deadline)
		w.unbind(me.Dst, e.Dst)
		w.unbind(me.Src, e.Src)
	}
	return k
}

// chargeScan charges n candidate-edge examinations in one shot: a scan
// examines exactly the entries before the δ-deadline break, so counting
// locally and charging once equals per-candidate accounting.
func (w *worker) chargeScan(n int) {
	w.stats.CandidateEdges += int64(n)
	w.stats.Branches += int64(n)
}

// scanStart computes the phase-1 filter origin for a neighborhood scan
// and charges its accounting. The origin comes from the worker's window
// cache, or — with Options.Memo set — from the memo table: the memoized
// index bounds the search range and a second binary search refines it
// (§VII-D), and the streamed tail is counted from the memo origin.
func (w *worker) scanStart(list []temporal.EdgeID, out bool, node temporal.NodeID, last temporal.EdgeID) int {
	origin, start := 0, 0
	if memo := w.opts.Memo; memo != nil {
		if s, hit := memo.Lookup(out, node, w.rootEG); hit {
			origin = s
			w.stats.MemoHits++
			w.stats.MemoSkippedEntries += int64(s)
		}
		w.stats.BinarySearches++ // the extra memo-index search
		// Keep the memo current for later trees: position of the first
		// entry beyond this tree's root.
		memo.Update(out, node, w.rootEG, origin+temporal.SearchAfter(list[origin:], w.rootEG))
		start = origin + temporal.SearchAfter(list[origin:], last)
	} else {
		start = w.wc.SearchAfter(list, out, node, last)
	}
	w.stats.BinarySearches++
	if n := len(list) - origin; n > 0 {
		w.stats.Branches += int64(bits.Len(uint(n)))
	}
	// Fig 7 accounting: a streaming hardware fetch transfers the tail of
	// the neighborhood from the filter origin; only entries beyond the eG
	// filter are useful.
	w.stats.NeighborEntries += int64(len(list) - origin)
	w.stats.NeighborEntriesUseful += int64(len(list) - start)
	if w.opts.Probe != nil {
		w.opts.Probe.NeighborhoodAccess(int32(node), out, len(list), start, int32(w.rootEG))
	}
	return start
}

// maxTimestamp is the sentinel deadline before the first edge is matched.
const maxTimestamp = temporal.Timestamp(math.MaxInt64)

// edgeIDsAsInt32 copies seq into buf, reusing buf's storage when it is
// large enough: the match slice a Probe receives.
func edgeIDsAsInt32(buf []int32, seq []temporal.EdgeID) []int32 {
	buf = buf[:0]
	for _, id := range seq {
		buf = append(buf, int32(id))
	}
	return buf
}
