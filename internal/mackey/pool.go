package mackey

import (
	"sync"

	"mint/internal/temporal"
)

// Allocation pooling for the mining hot path. A miner's per-run state is
// two O(|V_G|)-ish node-mapping arrays, the match stack, the count cells,
// the one-path trie of a single-motif run, and the window cache — all of
// it reusable verbatim between runs once the bindings are cleared. The
// pools below recycle that state so steady-state mining (repeated
// Count/Enumerate calls, per-worker state in the parallel miners,
// benchmark loops) performs zero per-run heap allocations; the
// per-expansion path was already allocation-free.
//
// Pooled state is single-owner: a worker is checked out by exactly one
// goroutine and returned only after its stats are harvested. A worker that
// panicked is abandoned, not pooled — its bindings are mid-tree and not
// worth untangling.

var workerPool sync.Pool

// acquireWorker returns a run-ready worker, recycled when possible, that
// walks t — or, when t is nil, m's one-path trie.
func acquireWorker(g *temporal.Graph, m *temporal.Motif, t *Trie, opts Options) *worker {
	var w *worker
	if v := workerPool.Get(); v != nil {
		w = v.(*worker)
		w.stats = Stats{PoolReuse: 1}
	} else {
		w = &worker{}
	}
	if t == nil {
		t = w.loadMotif(m)
	}
	w.g, w.roots, w.delta, w.opts = g, t.Root.Children, t.Delta, opts
	w.m2g = resizeInvalid(w.m2g, t.MaxMotifNodes)
	w.g2m = resizeInvalid(w.g2m, g.NumNodes())
	w.counts = resizeZero(w.counts, t.NumMotifs)
	if cap(w.seq) < t.MaxMotifEdges {
		w.seq = make([]temporal.EdgeID, t.MaxMotifEdges)
	}
	w.seq = w.seq[:t.MaxMotifEdges]
	w.wc.ResetFor(g)
	w.shared = 0
	w.rootEG = 0
	w.sinceCheck = 0
	w.stopped = false
	w.flushedMatches = 0
	w.countLeaves = opts.Probe == nil && opts.Memo == nil && !opts.Ctl.MatchBudgeted()
	return w
}

// release clears any live bindings (a truncated run stops mid-tree),
// zeroes the count cells, and returns the worker to the pool.
func (w *worker) release() {
	for mu, gu := range w.m2g {
		if gu != temporal.InvalidNode {
			w.g2m[gu] = temporal.InvalidNode
			w.m2g[mu] = temporal.InvalidNode
		}
	}
	clear(w.counts)
	w.g, w.roots = nil, nil
	w.opts = Options{}
	workerPool.Put(w)
}

var algo1Pool sync.Pool

// acquireAlgo1 returns a run-ready iterative-miner state, recycled when
// possible.
func acquireAlgo1(g *temporal.Graph, m *temporal.Motif, opts Options) *algo1 {
	var a *algo1
	if v := algo1Pool.Get(); v != nil {
		a = v.(*algo1)
		a.stats = Stats{PoolReuse: 1}
	} else {
		a = &algo1{}
	}
	a.g, a.m, a.opts = g, m, opts
	a.m2g = resizeInvalid(a.m2g, m.NumNodes())
	a.g2m = resizeInvalid(a.g2m, g.NumNodes())
	a.eCount = resizeZero(a.eCount, g.NumNodes())
	if cap(a.eStack) < m.NumEdges() {
		a.eStack = make([]temporal.EdgeID, 0, m.NumEdges())
	} else {
		a.eStack = a.eStack[:0]
	}
	a.wc.ResetFor(g)
	a.tPrime = 0
	a.rootEG = 0
	a.sinceCheck = 0
	a.stopped = false
	a.flushedMatches = 0
	return a
}

// release clears live bindings and mapped-edge counts, then pools the
// state.
func (a *algo1) release() {
	for mu, gu := range a.m2g {
		if gu != temporal.InvalidNode {
			a.g2m[gu] = temporal.InvalidNode
			a.eCount[gu] = 0
			a.m2g[mu] = temporal.InvalidNode
		}
	}
	a.eStack = a.eStack[:0]
	a.g, a.m = nil, nil
	a.opts = Options{}
	algo1Pool.Put(a)
}

// resizeInvalid returns s resized to n entries with every entry that could
// hold stale data set to InvalidNode. Pool invariant: a released mapping
// array is all-InvalidNode within its high-water length, so only freshly
// allocated or newly exposed capacity needs filling.
func resizeInvalid(s []temporal.NodeID, n int) []temporal.NodeID {
	if cap(s) < n {
		s = make([]temporal.NodeID, n)
		for i := range s {
			s[i] = temporal.InvalidNode
		}
		return s
	}
	old := len(s)
	s = s[:n]
	for i := old; i < n; i++ {
		s[i] = temporal.InvalidNode
	}
	return s
}

// resizeZero returns s resized to n zero entries under the same pool
// invariant (released counts are zero within the high-water length).
func resizeZero[T int32 | int64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	old := len(s)
	s = s[:n]
	for i := old; i < n; i++ {
		s[i] = 0
	}
	return s
}
