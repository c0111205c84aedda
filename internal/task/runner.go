package task

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mint/internal/faultinject"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// QueueResult is the outcome of a cancellable task-queue run.
type QueueResult struct {
	// Matches is the exact number of complete motif instances counted
	// before the run finished or was stopped.
	Matches int64
	// Tasks counts processed task-loop steps (search, bookkeep, or
	// backtrack) — the node-expansion unit the MaxNodes budget is charged
	// in for the queue runners.
	Tasks int64
	// Truncated reports that the run stopped before draining the root
	// list; Matches is then an exact partial count (a lower bound).
	Truncated bool
	// StopReason says why a truncated run stopped.
	StopReason runctl.Reason
}

// Run mines the motif with the task-centric model executed synchronously
// per context: each worker owns one Context, repeatedly pulls the next
// root task from the shared queue (an atomic cursor over the chronological
// edge list, like Mint's hardware task queue), and drives the
// search→bookkeep/backtrack loop to tree exhaustion. It returns the exact
// match count; property tests pin it to the Mackey miners and the oracle.
func Run(g *temporal.Graph, m *temporal.Motif, workers int) int64 {
	res, _ := RunCtl(g, m, workers, nil)
	return res.Matches
}

// RunCtl is Run under a cancellation/budget controller (nil = unbounded).
// A panicking worker is converted into a *runctl.PanicError carrying the
// root edge ID of the tree it was expanding; the other workers stop
// promptly and the partial count is returned alongside the error.
func RunCtl(g *temporal.Graph, m *temporal.Motif, workers int, ctl *runctl.Controller) (QueueResult, error) {
	return RunCtlObs(g, m, workers, ctl, nil)
}

// RunCtlObs is RunCtl with the run's task-type tallies folded into reg
// (nil disables observability at zero cost — see obs.go for the names).
func RunCtlObs(g *temporal.Graph, m *temporal.Motif, workers int, ctl *runctl.Controller, reg *obs.Registry) (QueueResult, error) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	plan := ctl.FaultPlan()
	var next atomic.Int64
	var matches, tasks atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var ctx Context
			// Worker-local window cache: contexts here never migrate, so
			// every phase-1 filter origin this worker computes can reuse its
			// own memoized bounds race-free.
			wc := temporal.GetWindowCacheFor(g)
			p := poller{ctl: ctl}
			defer func() {
				if r := recover(); r != nil {
					if inj, ok := r.(*faultinject.Injected); ok {
						errs[wi] = inj
						ctl.Stop(runctl.FaultInjected)
					} else {
						errs[wi] = &runctl.PanicError{Worker: wi, Root: int64(ctx.RootEG), Value: r}
						ctl.Stop(runctl.Failed)
					}
					matches.Add(p.matches)
					tasks.Add(p.tasks)
				}
				p.cacheHits, p.cacheMisses = wc.Hits(), wc.Misses()
				publishPoller(reg, wi, &p)
				temporal.PutWindowCache(wc)
			}()
			for !p.stopped {
				root := next.Add(1) - 1
				if root >= int64(g.NumEdges()) {
					break
				}
				if plan != nil {
					// Chaos site "task.root": Error/Drop truncate the run as
					// FaultInjected; a Panic unwinds into the recover above.
					if err := plan.Fire("task.root", root, 0); err != nil {
						errs[wi] = err
						ctl.Stop(runctl.FaultInjected)
						break
					}
				}
				if !ctx.StartRoot(g, m, temporal.EdgeID(root)) {
					continue
				}
				runTree(&ctx, g, m, &p, wc)
			}
			p.flush()
			matches.Add(p.matches)
			tasks.Add(p.tasks)
		}(wi)
	}
	wg.Wait()
	res := QueueResult{Matches: matches.Load(), Tasks: tasks.Load()}
	if ctl.Stopped() {
		res.Truncated = true
		res.StopReason = ctl.Reason()
	}
	publishQueueResult(reg, res)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// poller is the per-worker cooperative cancellation state: task and match
// counts since the last flush into the shared controller, plus the latched
// stop flag. One step() call per processed task keeps the amortized cost
// at a local increment and compare.
type poller struct {
	ctl      *runctl.Controller
	since    int32
	stopped  bool
	matches  int64 // total for this worker
	tasks    int64 // total for this worker
	flushedM int64
	flushedT int64

	// Task-type tallies (Fig 4(a) taxonomy), folded into the obs
	// registry when the worker retires; always maintained — a local
	// increment per task, same cost class as tasks++ above.
	searches   int64
	bookkeeps  int64
	backtracks int64

	// Hot-path reuse tallies, snapshotted at worker retirement: the
	// worker's window-cache hit/miss totals and the number of pooled
	// contexts it was handed (search.cache_* / pool.reuse).
	cacheHits   int64
	cacheMisses int64
	poolReuse   int64

	// sample, when set, is called once per flush — an amortized hook the
	// queue runner uses to record queue depth without touching the
	// per-task path.
	sample func()
}

// step records one processed task and polls the controller every
// runctl.CheckInterval tasks. It reports whether the worker should stop.
func (p *poller) step() bool {
	p.tasks++
	p.since++
	if p.since >= runctl.CheckInterval {
		p.flush()
	}
	return p.stopped
}

func (p *poller) flush() {
	p.since = 0
	if p.sample != nil {
		p.sample()
	}
	if p.ctl == nil {
		return
	}
	dt := p.tasks - p.flushedT
	dm := p.matches - p.flushedM
	p.flushedT = p.tasks
	p.flushedM = p.matches
	if p.ctl.Checkpoint(dt, dm) {
		p.stopped = true
	}
}

// runTree drives one context from a freshly started root to exhaustion (or
// a stop request), accumulating matches into the poller. This loop is the
// task-graph of Fig 4(a): Search spawns BookKeep or Backtrack; both spawn
// Search until the tree is exhausted.
func runTree(ctx *Context, g *temporal.Graph, m *temporal.Motif, p *poller, wc *temporal.WindowCache) {
	for ctx.Busy {
		if p.step() {
			return
		}
		switch ctx.Type {
		case Search:
			p.searches++
			if eG := ExecuteSearchCached(ctx, g, m, wc); eG != temporal.InvalidEdge {
				ctx.Cursor = eG // bookkeep consumes the found edge
				ctx.Type = BookKeep
			} else {
				ctx.Type = Backtrack
			}
		case BookKeep:
			p.bookkeeps++
			if ctx.Bookkeep(g, m, ctx.Cursor) {
				p.matches++
				if p.ctl.MatchBudgeted() {
					p.flush()
				}
				ctx.Type = Backtrack
			} else {
				ctx.Type = Search
			}
		case Backtrack:
			p.backtracks++
			if ctx.Backtrack(g, m) {
				return // tree exhausted; context idle
			}
			ctx.Type = Search
		}
	}
}

// queueTask is one unit of work flowing through the asynchronous queue
// runner: a context plus its pending task type (carried in the context).
type queueTask struct {
	ctx *Context
}

// RunQueue mines the motif with the fully asynchronous, queue-mediated
// execution of Fig 5(b): a bounded task queue feeds workers; every
// processed task enqueues its child task (search→bookkeep/backtrack,
// bookkeep/backtrack→search) until its tree is exhausted, at which point
// the context is recycled onto a fresh root. contexts bounds the number of
// in-flight search trees (the hardware analog: number of context-memory
// instances).
func RunQueue(g *temporal.Graph, m *temporal.Motif, workers, contexts int) int64 {
	res, _ := RunQueueCtl(g, m, workers, contexts, nil)
	return res.Matches
}

// RunQueueCtl is RunQueue under a cancellation/budget controller (nil =
// unbounded). On a stop request the queue drains cleanly: every in-flight
// context retires at its next dequeue, the queue closes once the last one
// is accounted for, and the partial match count is returned with
// Truncated=true. A panicking worker retires the offending context (so the
// drain still terminates), stops the run, and surfaces as a
// *runctl.PanicError carrying the context's root edge ID.
func RunQueueCtl(g *temporal.Graph, m *temporal.Motif, workers, contexts int, ctl *runctl.Controller) (QueueResult, error) {
	return RunQueueCtlObs(g, m, workers, contexts, ctl, nil)
}

// RunQueueCtlObs is RunQueueCtl with observability: per-worker task
// tallies fold into reg on retirement, and queue occupancy is sampled
// into the task.queue.depth histogram (with the task.queue.inflight
// gauge tracking live contexts) once per poller flush — amortized to
// every runctl.CheckInterval tasks, never on the per-task path. A nil
// reg disables all of it.
func RunQueueCtlObs(g *temporal.Graph, m *temporal.Motif, workers, contexts int, ctl *runctl.Controller, reg *obs.Registry) (QueueResult, error) {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if contexts < 1 {
		contexts = workers * 4
	}
	n := int64(g.NumEdges())
	plan := ctl.FaultPlan()
	var nextRoot atomic.Int64
	var matches, tasks atomic.Int64
	var inflight atomic.Int64
	errs := make([]error, workers)

	queue := make(chan queueTask, contexts)

	var sample func()
	if reg != nil {
		depth := reg.Histogram("task.queue.depth")
		live := reg.Gauge("task.queue.inflight")
		sample = func() {
			depth.Observe(int64(len(queue)))
			live.Set(inflight.Load())
		}
	}

	// seed pulls the next admissible root into ctx; returns false when the
	// edge list is drained.
	seed := func(ctx *Context) bool {
		for {
			root := nextRoot.Add(1) - 1
			if root >= n {
				return false
			}
			if ctx.StartRoot(g, m, temporal.EdgeID(root)) {
				return true
			}
		}
	}

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			// Contexts migrate between workers through the queue, but the
			// window cache never travels with them: it stays pinned to this
			// goroutine, so cached bounds are read and written by exactly
			// one worker. (Hanging the cache off the Context instead would
			// be a data race the moment a tree's tasks land on two workers.)
			wc := temporal.GetWindowCacheFor(g)
			p := poller{ctl: ctl, sample: sample}
			defer func() {
				p.cacheHits, p.cacheMisses = wc.Hits(), wc.Misses()
				publishPoller(reg, wi, &p)
				temporal.PutWindowCache(wc)
			}()
			// processTask advances one context by one task, reporting
			// whether the context retired. Panics are contained here so the
			// drain protocol below keeps working.
			processTask := func(ctx *Context) (done bool) {
				defer func() {
					if r := recover(); r != nil {
						errs[wi] = &runctl.PanicError{Worker: wi, Root: int64(ctx.RootEG), Value: r}
						ctl.Stop(runctl.Failed)
						p.stopped = true
						done = true
					}
				}()
				if p.step() {
					return true // stop requested: retire the context
				}
				switch ctx.Type {
				case Search:
					p.searches++
					if eG := ExecuteSearchCached(ctx, g, m, wc); eG != temporal.InvalidEdge {
						ctx.Cursor = eG
						ctx.Type = BookKeep
					} else {
						ctx.Type = Backtrack
					}
				case BookKeep:
					p.bookkeeps++
					if ctx.Bookkeep(g, m, ctx.Cursor) {
						p.matches++
						if p.ctl.MatchBudgeted() {
							p.flush()
						}
						ctx.Type = Backtrack
					} else {
						ctx.Type = Search
					}
				case Backtrack:
					p.backtracks++
					if ctx.Backtrack(g, m) {
						// Tree exhausted: recycle the context onto a new
						// root (unless stopping).
						if p.stopped || !seed(ctx) {
							return true
						}
						ctx.Type = Search
					} else {
						ctx.Type = Search
					}
				}
				return false
			}
			// dropTask evaluates the "task.queue" chaos site on a dequeued
			// task. A Drop (or Error/Panic) verdict loses the task's whole
			// in-flight tree, so soundness requires stopping the run as
			// FaultInjected — the partial count stays an explicit lower
			// bound, never a silent undercount.
			dropTask := func(ctx *Context) bool {
				if plan == nil {
					return false
				}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							inj, ok := r.(*faultinject.Injected)
							if !ok {
								panic(r)
							}
							err = inj
						}
					}()
					return plan.Fire("task.queue", int64(ctx.RootEG), 0)
				}()
				if err != nil {
					if errs[wi] == nil {
						errs[wi] = err
					}
					ctl.Stop(runctl.FaultInjected)
					return true
				}
				return false
			}
			for t := range queue {
				if dropTask(t.ctx) {
					// The dropped context's tree is incomplete; abandon it
					// (mid-tree state is not worth pooling) but keep the
					// drain protocol's inflight accounting intact.
					if inflight.Add(-1) == 0 {
						close(queue)
					}
					continue
				}
				if processTask(t.ctx) {
					if errs[wi] == nil {
						PutContext(t.ctx) // retired cleanly; recycle
					}
					if inflight.Add(-1) == 0 {
						close(queue)
					}
				} else {
					queue <- t
				}
			}
			p.flush()
			matches.Add(p.matches)
			tasks.Add(p.tasks)
		}(wi)
	}

	// Seed the initial wave of contexts from the pool; steady-state sweeps
	// re-arm recycled contexts instead of allocating a fresh wave per run.
	// The seeder holds one inflight token while it seeds, so workers that
	// retire every context seeded so far cannot close the queue under a
	// send still to come; whoever drops inflight to zero closes it.
	inflight.Add(1)
	var poolReuse int64
	for i := 0; i < contexts; i++ {
		ctx, reused := GetContext()
		if !seed(ctx) {
			PutContext(ctx)
			break
		}
		if reused {
			poolReuse++
		}
		inflight.Add(1)
		queue <- queueTask{ctx: ctx}
	}
	if reg != nil && poolReuse > 0 {
		reg.Counter("pool.reuse").Add(poolReuse)
	}
	if inflight.Add(-1) == 0 {
		close(queue)
	}
	wg.Wait()
	res := QueueResult{Matches: matches.Load(), Tasks: tasks.Load()}
	if ctl.Stopped() {
		res.Truncated = true
		res.StopReason = ctl.Reason()
	}
	publishQueueResult(reg, res)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
