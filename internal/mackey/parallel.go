package mackey

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mint/internal/faultinject"
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

// mineChunks is the one chunk scheduler: workers walking t (or m's
// one-path trie when t is nil) pull time-partitioned root chunks
// through a shared atomic cursor.
func mineChunks(ctx context.Context, g *temporal.Graph, m *temporal.Motif, t *Trie, opts Options, b runctl.Budget) (TrieResult, error) {
	if opts.Ctl == nil {
		// Always run parallel workers under a controller so that a panic
		// in one worker stops the others promptly.
		opts.Ctl = runctl.New(ctx, b)
	}
	ctl := opts.Ctl
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	lo, hi := opts.rootSpan(g.NumEdges())
	n := hi - lo
	if workers > n {
		workers = max(1, n)
	}

	// Time-partitioned dynamic scheduling: the root space is pre-split
	// into contiguous, timestamp-aligned edge ranges, and workers steal
	// whole ranges through a shared atomic cursor. Ranges are small enough
	// to balance the heavy-tailed tree sizes but, because each range
	// covers a half-open time interval, the roots a worker mines
	// consecutively stay temporally adjacent — which is exactly what
	// keeps its worker-local window cache advancing monotonically instead
	// of thrashing.
	bounds := partitionRoots(g, workers, temporal.EdgeID(lo), temporal.EdgeID(hi))
	numChunks := int64(len(bounds) - 1)

	// Per-worker observability tallies, written only by the owning worker
	// goroutine and read after wg.Wait(). Timing is collected only when an
	// observer is attached so the uninstrumented run stays byte-identical.
	observed := opts.Obs != nil || opts.Trace != nil
	var runStart time.Time
	if observed {
		runStart = time.Now()
	}

	plan := ctl.FaultPlan()
	var cursor atomic.Int64
	ws := make([]*worker, workers)
	panicked := make([]bool, workers)
	perChunks := make([]int64, workers)
	perBusy := make([]time.Duration, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var busyStart time.Time
			if observed {
				busyStart = time.Now()
			}
			w := acquireWorker(g, m, t, opts)
			ws[wi] = w
			cur := int64(temporal.InvalidEdge)
			defer func() {
				if r := recover(); r != nil {
					if inj, ok := r.(*faultinject.Injected); ok {
						// Injected chaos panic: the plain parallel miner has
						// no retry tier, so the run truncates — explicitly
						// attributed, never silently short-counted.
						errs[wi] = inj
						ctl.Stop(runctl.FaultInjected)
					} else {
						errs[wi] = &runctl.PanicError{Worker: wi, Root: cur, Value: r}
						ctl.Stop(runctl.Failed)
					}
					panicked[wi] = true
				}
				if observed {
					perBusy[wi] = time.Since(busyStart)
				}
			}()
		pull:
			for {
				k := cursor.Add(1) - 1
				if k >= numChunks {
					break
				}
				if plan != nil {
					// Chaos site "mackey.chunk": Error/Drop stop the run as
					// FaultInjected; a Panic unwinds into the recover above.
					// (The supervised variant retries these instead.)
					if err := plan.Fire("mackey.chunk", k, 0); err != nil {
						errs[wi] = err
						ctl.Stop(runctl.FaultInjected)
						break pull
					}
				}
				perChunks[wi]++
				for root := bounds[k]; root < bounds[k+1]; root++ {
					if w.stopped {
						break pull
					}
					cur = int64(root)
					w.mineRoot(root)
				}
			}
			w.checkpoint() // flush the tail of this worker's progress
			w.foldCacheStats()
		}(wi)
	}
	wg.Wait()

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
		busyHist := opts.Obs.Histogram("mackey.worker_busy_ns")
		nodesHist := opts.Obs.Histogram("mackey.worker_nodes")
		for wi, w := range ws {
			publishStats(opts.Obs, wi, w.stats)
			if perChunks[wi] > 0 {
				opts.Obs.Counter("mackey.parallel.chunks").AddShard(wi, perChunks[wi])
				opts.Obs.Counter("mackey.parallel.steals").AddShard(wi, perChunks[wi]-1)
			}
			busyHist.Observe(perBusy[wi].Nanoseconds())
			nodesHist.Observe(w.stats.NodesExpanded)
		}
		if res.Truncated {
			opts.Obs.Counter("mackey.truncated_runs").Add(1)
		}
		publishController(opts.Obs, ctl)
	}
	if opts.Trace != nil {
		traceID := ctl.TraceID()
		for wi := range perBusy {
			opts.Trace.EmitTagged("mackey.worker", traceID, int32(wi), runStart, perBusy[wi])
		}
		opts.Trace.EmitTagged("mackey.mine_parallel", traceID, -1, runStart, time.Since(runStart))
	}
	for wi, w := range ws {
		if !panicked[wi] {
			// A panicked worker's bindings are mid-tree; abandon it to the
			// GC rather than pooling corrupt state.
			w.release()
		}
	}

	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
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
