package mackey

import (
	"context"
	"math"
	"sort"
	"sync"

	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Closed-form star kernels. A star motif is k ≥ 2 edges that all leave
// one centre (an out-star; the paper's M4 is the four-edge one) or all
// enter it (an in-star), each with its own leaf. For a root edge A→B at
// time t, every instance continues with k−1 later edges of A's
// out-list (in-list) no later than t+δ whose leaves are distinct, not A
// (no self-loops) and not B. With c_d the number of such window edges
// reaching leaf d, the root's count is the elementary symmetric
// polynomial e_{k−1} of the c_d with B's count removed: choosing k−1
// distinct leaves and one edge to each fixes the instance, because the
// edges' order is their edge-index order. The kernel slides the window
// over each centre's adjacency once, keeping the c_d and the power sums
// p_s = Σ c_d^s; Newton's identities turn the power sums into e_1..e_{k−1}
// per root, and removing B's count is the O(k) recursion
// e'_q = e_q − c_B·e'_{q−1}. A whole run is O(edges) instead of one
// search-tree leaf per instance. DESIGN.md §17 has the derivation.

// Star is a star motif in the kernel's terms.
type Star struct {
	// Out is true for an out-star (the centre is every edge's source)
	// and false for an in-star (the centre is every edge's destination).
	Out bool
	// Edges is the motif's edge count k ≥ 2: the root edge plus k−1
	// later edges.
	Edges int
}

// StarOf reports whether m is a star the kernels count: at least two
// edges sharing one source, or one destination, with every other
// endpoint distinct.
func StarOf(m *temporal.Motif) (Star, bool) {
	k := m.NumEdges()
	if k < 2 || m.NumNodes() != k+1 {
		return Star{}, false
	}
	out, in := true, true
	for _, e := range m.Edges[1:] {
		out = out && e.Src == m.Edges[0].Src
		in = in && e.Dst == m.Edges[0].Dst
	}
	if !out && !in {
		return Star{}, false
	}
	return Star{Out: out, Edges: k}, true
}

// Fits reports whether the kernel's arithmetic stays inside int64 on g.
// A window holds at most W edges, W being the largest out-degree (in-
// degree for an in-star), so with j = Edges−1 every power sum p_s is at
// most W^s, every e_q at most W^q, and every partial sum of Newton's
// identity for e_q at most q·W^q: the bound j·W^j ≤ MaxInt64 covers all
// of them. A star past the bound is mined by the trie executor.
func (s Star) Fits(g *temporal.Graph) bool {
	w := int64(g.MaxOutDegree())
	if !s.Out {
		w = int64(g.MaxInDegree())
	}
	bound := int64(s.Edges - 1)
	for i := 1; i < s.Edges; i++ {
		if w > 0 && bound > math.MaxInt64/w {
			return false
		}
		bound *= w
	}
	return true
}

// KernelFor is the routing rule every entry point shares: m goes to a
// star kernel iff it is a star (StarOf) whose arithmetic fits on g
// (Star.Fits), and the run observes nothing a closed form cannot
// reproduce — no Probe (enumeration and characterization see every
// match), no memo table (the paper's memoized baseline), and neither a
// match nor a node budget in b or in opts.Ctl (both are charged per
// match or per search-tree node, units a kernel does not have). A
// deadline, a cancel and a chaos plan are fine: the kernel stops
// between centres and is loudly Truncated.
func KernelFor(g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) (Star, bool) {
	if opts.Probe != nil || opts.Memo != nil || counted(b) || counted(opts.Ctl.Budget()) {
		return Star{}, false
	}
	s, ok := StarOf(m)
	if !ok || !s.Fits(g) {
		return Star{}, false
	}
	return s, true
}

func counted(b runctl.Budget) bool { return b.MaxMatches > 0 || b.MaxNodes > 0 }

// MineStarCtx counts the instances of star s with time window delta in
// g. Chunks are ranges of centre nodes balanced by degree, run on the
// chunk scheduler, so the kernel has the executor's workers, panic
// containment, "mackey.chunk" chaos site and controller. opts.Roots
// restricts the roots by binary search into each centre's adjacency, so
// counts over disjoint root ranges sum exactly. A deadline or cancel
// stops the kernel between centres; the count so far is then an exact
// lower bound, marked Truncated. Stats carries only Matches, because a
// kernel expands no search-tree nodes; its unit of work, the adjacency
// entries its windows touch, goes to the kernel.edges counter.
// opts.Probe and opts.Memo are ignored: route through KernelFor.
func MineStarCtx(ctx context.Context, g *temporal.Graph, s Star, delta temporal.Timestamp, opts Options, b runctl.Budget) (Result, error) {
	if opts.Ctl == nil {
		opts.Ctl = runctl.New(ctx, b)
	}
	ctl := opts.Ctl
	lo, hi := opts.rootSpan(g.NumEdges())
	workers := workerCount(opts.Workers, g.NumNodes())
	bounds := partitionCentres(g, s.Out, workers)
	run := newChunkRun(ctl, workers, len(bounds)-1, opts.Obs != nil || opts.Trace != nil)
	ws := make([]*starWorker, workers)
	run.schedule(func(wi int) {
		ws[wi] = acquireStarWorker(g, s, delta, ctl, temporal.EdgeID(lo), temporal.EdgeID(hi))
	}, func(wi, k int, cur *int64) bool {
		w := ws[wi]
		for a := bounds[k]; a < bounds[k+1] && !w.stopped; a++ {
			w.mineCentre(a, cur)
		}
		return w.stopped
	}, func(wi int) {
		ws[wi].checkpoint()
	})

	var res Result
	var edges int64
	for _, w := range ws {
		res.Matches += w.matches
		edges += w.edges
	}
	res.Stats.Matches = res.Matches
	if ctl.Stopped() {
		res.Truncated = true
		res.StopReason = ctl.Reason()
	}
	if opts.Obs != nil {
		opts.Obs.Counter("kernel.runs").Add(1)
		opts.Obs.Counter("kernel.edges").Add(edges)
		run.publish(opts.Obs)
		publishController(opts.Obs, ctl)
	}
	run.trace(opts.Trace, "mackey.kernel")
	for wi, w := range ws {
		if !run.panicked[wi] {
			w.release()
		}
	}
	return res, run.err()
}

// partitionCentres splits the node range into chunks of consecutive
// centres whose adjacency lists (out-lists for an out-star) hold about
// edges/(workers·16) entries each: chunk k is centres
// bounds[k]..bounds[k+1]−1.
func partitionCentres(g *temporal.Graph, out bool, workers int) []temporal.NodeID {
	n := g.NumNodes()
	target := max(1, g.NumEdges()/(workers*16))
	bounds := make([]temporal.NodeID, 1, workers*16+2)
	acc := 0
	for a := 0; a < n-1; a++ {
		if out {
			acc += len(g.OutEdges(temporal.NodeID(a)))
		} else {
			acc += len(g.InEdges(temporal.NodeID(a)))
		}
		if acc >= target {
			bounds = append(bounds, temporal.NodeID(a+1))
			acc = 0
		}
	}
	return append(bounds, temporal.NodeID(n))
}

// starWorker is one kernel worker's state. cnt and p describe the
// current centre's window; both are zero between centres.
type starWorker struct {
	g      *temporal.Graph
	out    bool
	leaves int // k−1: the edges after the root
	delta  temporal.Timestamp
	lo, hi temporal.EdgeID // root span
	// full marks the unrestricted root span, which needs no search.
	full bool
	ctl  *runctl.Controller

	cnt []int32 // window edges per leaf node
	// p[s] = Σ_d cnt[d]^s for s = 1..leaves; e is Newton's scratch.
	p, e [temporal.MaxMotifEdges]int64

	matches, edges int64
	flushed        int64
	// since counts edges touched since the last controller poll.
	since   int64
	stopped bool
}

var starPool sync.Pool

func acquireStarWorker(g *temporal.Graph, s Star, delta temporal.Timestamp, ctl *runctl.Controller, lo, hi temporal.EdgeID) *starWorker {
	w, _ := starPool.Get().(*starWorker)
	if w == nil {
		w = &starWorker{}
	}
	cnt := resizeZero(w.cnt, g.NumNodes())
	*w = starWorker{g: g, out: s.Out, leaves: s.Edges - 1, delta: delta, ctl: ctl,
		lo: lo, hi: hi, full: lo == 0 && int(hi) == g.NumEdges(), cnt: cnt}
	return w
}

// release pools the worker; the window counts are already zero.
func (w *starWorker) release() {
	w.g, w.ctl = nil, nil
	starPool.Put(w)
}

// leaf is the endpoint of e that is not the centre.
func (w *starWorker) leaf(e temporal.Edge) temporal.NodeID {
	if w.out {
		return e.Dst
	}
	return e.Src
}

// mineCentre counts the instances whose centre is a and whose root lies
// in the worker's root span, then polls the controller when enough work
// has passed since the last poll: stops land between centres.
func (w *starWorker) mineCentre(a temporal.NodeID, cur *int64) {
	list := w.g.InEdges(a)
	if w.out {
		list = w.g.OutEdges(a)
	}
	from, to := 0, len(list)
	if !w.full {
		from = sort.Search(len(list), func(i int) bool { return list[i] >= w.lo })
		to = from + sort.Search(len(list)-from, func(i int) bool { return list[from+i] >= w.hi })
	}
	if from == to {
		return
	}
	*cur = int64(list[from])
	edges := w.g.Edges
	// The window of root i is positions (i, whi) of list: the later
	// edges no later than the root's time plus δ. Both ends only move
	// forward, so each entry enters and leaves it at most once.
	whi := from + 1
	for i := from; i < to; i++ {
		e := edges[list[i]]
		if i > from && i < whi {
			w.remove(w.leaf(e), a) // the new root leaves the window
		}
		whi = max(whi, i+1)
		deadline := e.Time + w.delta
		for ; whi < len(list); whi++ {
			f := edges[list[whi]]
			if f.Time > deadline {
				break
			}
			w.add(w.leaf(f), a)
		}
		if b := w.leaf(e); b != a {
			w.matches += w.rootCount(b)
		}
	}
	// Empty the last window for the next centre.
	for i := to; i < whi; i++ {
		w.cnt[w.leaf(edges[list[i]])] = 0
	}
	w.p = [temporal.MaxMotifEdges]int64{}
	w.edges += int64(whi - from)
	if w.since += int64(whi - from); w.since >= runctl.CheckInterval {
		w.checkpoint()
	}
}

// add counts one window edge to leaf d (a self-loop, d = a, is never a
// leaf), moving each power sum by (x+1)^s − x^s.
func (w *starWorker) add(d, a temporal.NodeID) {
	if d == a {
		return
	}
	x := int64(w.cnt[d])
	w.cnt[d]++
	xs, ys := int64(1), int64(1)
	for s := 1; s <= w.leaves; s++ {
		xs *= x
		ys *= x + 1
		w.p[s] += ys - xs
	}
}

// remove is add's inverse.
func (w *starWorker) remove(d, a temporal.NodeID) {
	if d == a {
		return
	}
	x := int64(w.cnt[d])
	w.cnt[d]--
	xs, ys := int64(1), int64(1)
	for s := 1; s <= w.leaves; s++ {
		xs *= x
		ys *= x - 1
		w.p[s] -= xs - ys
	}
}

// rootCount is the number of ways to pick w.leaves window edges with
// distinct leaves, none of them b: e_{k−1} of the window counts with
// b's count removed.
func (w *starWorker) rootCount(b temporal.NodeID) int64 {
	j := w.leaves
	c := int64(w.cnt[b])
	if w.p[1]-c < int64(j) {
		return 0 // fewer window edges avoid b than there are leaves to fill
	}
	// Newton's identities: q·e_q = Σ_{i=1..q} (−1)^{i−1} e_{q−i} p_i.
	e := &w.e
	e[0] = 1
	for q := 1; q <= j; q++ {
		var sum int64
		for i := 1; i <= q; i++ {
			if t := e[q-i] * w.p[i]; i&1 == 1 {
				sum += t
			} else {
				sum -= t
			}
		}
		e[q] = sum / int64(q)
	}
	// Remove b: e'_q = e_q − c·e'_{q−1}, with e'_0 = 1.
	r := int64(1)
	for q := 1; q <= j; q++ {
		r = e[q] - c*r
	}
	return r
}

// checkpoint flushes the worker's matches into the controller and
// latches a stop.
func (w *starWorker) checkpoint() {
	w.since = 0
	dm := w.matches - w.flushed
	w.flushed = w.matches
	if w.ctl.Checkpoint(0, dm) {
		w.stopped = true
	}
}
