package mackey

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mint/internal/faultinject"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// MineParallel is the task-centric multi-threaded CPU baseline of the
// paper (§VII-D: "we convert their code into a task-centric multi-threaded
// implementation ... using work stealing OpenMP threads"). Root tasks —
// complete search trees, which are mutually independent (§IV-C) — are
// distributed to workers through a shared atomic cursor in small chunks,
// the Go analog of OpenMP dynamic/work-stealing scheduling. Each worker
// owns private node mappings; only the optional memo table is shared.
//
// A panicking worker aborts the run and surfaces as the error of
// MineParallelCtx; this compatibility wrapper re-panics with it, which is
// still strictly better than the unrecovered-goroutine process kill the
// panic would otherwise cause.
func MineParallel(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	res, err := MineParallelCtx(context.Background(), g, m, opts, runctl.Budget{})
	if err != nil {
		panic(err)
	}
	return res
}

// MineParallelCtx is MineParallel bounded by a context and a budget.
// Cancellation is cooperative: workers poll a shared atomic flag every
// runctl.CheckInterval tree expansions and unwind promptly. A truncated
// run returns Truncated=true with the exact partial count and stats
// merged across workers. A worker panic converts into a *runctl.PanicError
// (carrying the offending root edge ID) instead of killing the process;
// the remaining workers are stopped and their partial stats returned.
func MineParallelCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) (Result, error) {
	res, err := mineChunks(ctx, g, m, nil, opts, b)
	return res.Result, err
}

// TrieResult is the outcome of a trie run: the merged Result (Matches
// sums every motif) plus the per-motif counts and the shared-work tally.
type TrieResult struct {
	Result
	// Counts holds each motif's exact (possibly partial) count, indexed
	// like Node.Terminal; len(Counts) == Trie.NumMotifs.
	Counts []int64
	// Shared counts expansions at trie nodes with Passing > 1 — each one
	// replaced Passing single-motif expansions.
	Shared int64
}

// MineTrieCtx mines every motif of t in one traversal per root edge,
// with the scheduler, cancellation, panic containment and chaos site of
// MineParallelCtx. Shared expansions are charged once, so Stats is not
// comparable field by field with per-motif runs; Counts are.
func MineTrieCtx(ctx context.Context, g *temporal.Graph, t *Trie, opts Options, b runctl.Budget) (TrieResult, error) {
	return mineChunks(ctx, g, nil, t, opts, b)
}

// mineChunks runs the trie executor on the chunk scheduler: workers
// walking t (or m's one-path trie when t is nil) pull time-partitioned
// root chunks through a shared atomic cursor.
func mineChunks(ctx context.Context, g *temporal.Graph, m *temporal.Motif, t *Trie, opts Options, b runctl.Budget) (TrieResult, error) {
	if opts.Ctl == nil {
		// Always run parallel workers under a controller so that a panic
		// in one worker stops the others promptly.
		opts.Ctl = runctl.New(ctx, b)
	}
	ctl := opts.Ctl
	lo, hi := opts.rootSpan(g.NumEdges())

	// Time-partitioned dynamic scheduling: the root space is pre-split
	// into contiguous, timestamp-aligned edge ranges, and workers steal
	// whole ranges through a shared atomic cursor. Ranges are small enough
	// to balance the heavy-tailed tree sizes but, because each range
	// covers a half-open time interval, the roots a worker mines
	// consecutively stay temporally adjacent — which is exactly what
	// keeps its worker-local window cache advancing monotonically instead
	// of thrashing.
	workers := workerCount(opts.Workers, hi-lo)
	bounds := partitionRoots(g, workers, temporal.EdgeID(lo), temporal.EdgeID(hi))
	run := newChunkRun(ctl, workers, len(bounds)-1, opts.Obs != nil || opts.Trace != nil)
	ws := make([]*worker, workers)
	run.schedule(func(wi int) {
		ws[wi] = acquireWorker(g, m, t, opts)
	}, func(wi, k int, cur *int64) bool {
		w := ws[wi]
		for root := bounds[k]; root < bounds[k+1]; root++ {
			if w.stopped {
				break
			}
			*cur = int64(root)
			w.mineRoot(root)
		}
		return w.stopped
	}, func(wi int) {
		ws[wi].checkpoint() // flush the tail of this worker's progress
		ws[wi].foldCacheStats()
	})

	res := TrieResult{Counts: make([]int64, len(ws[0].counts))}
	for _, w := range ws {
		res.Stats.Add(w.stats)
		for i, c := range w.counts {
			res.Counts[i] += c
		}
		res.Shared += w.shared
	}
	res.Matches = res.Stats.Matches
	if ctl.Stopped() {
		res.Truncated = true
		res.StopReason = ctl.Reason()
	}

	// Fold each worker's counters into its own registry shard, plus the
	// per-worker utilization distribution — a flat busy-time histogram
	// with an idle tail is the work-stealing balance signal.
	if opts.Obs != nil {
		nodesHist := opts.Obs.Histogram("mackey.worker_nodes")
		for wi, w := range ws {
			publishStats(opts.Obs, wi, w.stats)
			nodesHist.Observe(w.stats.NodesExpanded)
		}
		run.publish(opts.Obs)
		if res.Truncated {
			opts.Obs.Counter("mackey.truncated_runs").Add(1)
		}
		publishController(opts.Obs, ctl)
	}
	run.trace(opts.Trace, "mackey.mine_parallel")
	for wi, w := range ws {
		if !run.panicked[wi] {
			// A panicked worker's bindings are mid-tree; abandon it to the
			// GC rather than pooling corrupt state.
			w.release()
		}
	}
	return res, run.err()
}

// workerCount resolves a run's parallelism: < 1 means GOMAXPROCS, and
// never more workers than units of work (but at least one).
func workerCount(workers, units int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, units))
}

// chunkRun is one run of the chunk scheduler, shared by the trie
// executor and the star kernels: workers pull chunk indexes through a
// shared atomic cursor under one controller, with panic containment,
// the "mackey.chunk" chaos site, and per-worker busy and chunk tallies
// for the observability fold. Each tally is written only by its owning
// worker goroutine and read after schedule returns.
type chunkRun struct {
	ctl     *runctl.Controller
	workers int
	chunks  int64
	// observed turns on per-worker timing; the uninstrumented run takes
	// no clock readings.
	observed bool
	start    time.Time

	panicked  []bool
	perChunks []int64
	perBusy   []time.Duration
	errs      []error
}

func newChunkRun(ctl *runctl.Controller, workers, chunks int, observed bool) *chunkRun {
	r := &chunkRun{
		ctl: ctl, workers: workers, chunks: int64(chunks), observed: observed,
		panicked:  make([]bool, workers),
		perChunks: make([]int64, workers),
		perBusy:   make([]time.Duration, workers),
		errs:      make([]error, workers),
	}
	if observed {
		r.start = time.Now()
	}
	return r
}

// schedule runs the workers to completion. begin prepares worker wi's
// state on its own goroutine; mine mines chunk k, keeping *cur on the
// root edge it is at for a panic report, and reports whether the worker
// has stopped; end flushes a worker after its last chunk. A panicking
// worker skips end and is marked in r.panicked.
func (r *chunkRun) schedule(begin func(wi int), mine func(wi, k int, cur *int64) bool, end func(wi int)) {
	plan := r.ctl.FaultPlan()
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < r.workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var busyStart time.Time
			if r.observed {
				busyStart = time.Now()
			}
			cur := int64(temporal.InvalidEdge)
			defer func() {
				if v := recover(); v != nil {
					if inj, ok := v.(*faultinject.Injected); ok {
						// Injected chaos panic: the plain scheduler has no
						// retry tier, so the run truncates — explicitly
						// attributed, never silently short-counted.
						r.errs[wi] = inj
						r.ctl.Stop(runctl.FaultInjected)
					} else {
						r.errs[wi] = &runctl.PanicError{Worker: wi, Root: cur, Value: v}
						r.ctl.Stop(runctl.Failed)
					}
					r.panicked[wi] = true
				}
				if r.observed {
					r.perBusy[wi] = time.Since(busyStart)
				}
			}()
			begin(wi)
			for {
				k := cursor.Add(1) - 1
				if k >= r.chunks {
					break
				}
				if plan != nil {
					// Chaos site "mackey.chunk": Error/Drop stop the run as
					// FaultInjected; a Panic unwinds into the recover above.
					// (The supervised variant retries these instead.)
					if err := plan.Fire("mackey.chunk", k, 0); err != nil {
						r.errs[wi] = err
						r.ctl.Stop(runctl.FaultInjected)
						break
					}
				}
				r.perChunks[wi]++
				if mine(wi, int(k), &cur) {
					break
				}
			}
			end(wi)
		}(wi)
	}
	wg.Wait()
}

// err is the first worker error: a panic, or an injected fault.
func (r *chunkRun) err() error {
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// publish folds the scheduler's per-worker tallies into reg: chunks
// pulled, steals, and the busy-time histogram.
func (r *chunkRun) publish(reg *obs.Registry) {
	busyHist := reg.Histogram("mackey.worker_busy_ns")
	for wi := range r.perChunks {
		if r.perChunks[wi] > 0 {
			reg.Counter("mackey.parallel.chunks").AddShard(wi, r.perChunks[wi])
			reg.Counter("mackey.parallel.steals").AddShard(wi, r.perChunks[wi]-1)
		}
		busyHist.Observe(r.perBusy[wi].Nanoseconds())
	}
}

// trace emits one span per worker plus the run's span named span.
func (r *chunkRun) trace(tr *obs.Tracer, span string) {
	if tr == nil {
		return
	}
	traceID := r.ctl.TraceID()
	for wi := range r.perBusy {
		tr.EmitTagged("mackey.worker", traceID, int32(wi), r.start, r.perBusy[wi])
	}
	tr.EmitTagged(span, traceID, -1, r.start, time.Since(r.start))
}

// partitionRoots splits the half-open root index range [lo, hi) into
// contiguous chunk boundaries: chunk k is bounds[k]..bounds[k+1]. Target
// chunk size is n / (workers·16), clamped to [1, 256] roots, but every
// boundary is snapped forward past timestamp ties so each chunk covers a
// half-open time interval — a time partition of the edge list, not just
// an index partition. The sharding layer hands each worker process one
// such range; the in-process scheduler partitions identically inside it.
func partitionRoots(g *temporal.Graph, workers int, lo, hi temporal.EdgeID) []temporal.EdgeID {
	n := int(hi - lo)
	if n < 0 {
		n = 0
	}
	chunk := n / (workers * 16)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 256 {
		chunk = 256
	}
	bounds := make([]temporal.EdgeID, 1, n/chunk+2)
	bounds[0] = lo
	for b := int(lo) + chunk; b < int(hi); {
		for b < int(hi) && g.Edges[b].Time == g.Edges[b-1].Time {
			b++ // never split a timestamp tie across chunks
		}
		if b >= int(hi) {
			break
		}
		bounds = append(bounds, temporal.EdgeID(b))
		b += chunk
	}
	return append(bounds, hi)
}

// MineMemo runs the sequential reference miner with software search index
// memoization enabled — the "Mackey et al. CPU w/ Memoization" baseline of
// Fig 10/11. The memo table is allocated internally.
func MineMemo(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	opts.Memo = NewMemoTable(g.NumNodes())
	return Mine(g, m, opts)
}

// MineParallelMemo is MineParallel with a shared memo table.
func MineParallelMemo(g *temporal.Graph, m *temporal.Motif, opts Options) Result {
	opts.Memo = NewMemoTable(g.NumNodes())
	return MineParallel(g, m, opts)
}

// MineParallelMemoCtx is MineParallelCtx with a shared memo table.
func MineParallelMemoCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, opts Options, b runctl.Budget) (Result, error) {
	opts.Memo = NewMemoTable(g.NumNodes())
	return MineParallelCtx(ctx, g, m, opts, b)
}
