package mackey

import (
	"context"
	"runtime"
	"slices"
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
	total, res, err := runChunks(opts, workers, partitionRoots(g, workers, lo, hi), "mackey.mine_parallel", func() []int64 {
		route := t
		if route == nil {
			route = new(worker).loadMotif(m)
		}
		return runIdent(g, lo, hi, trieRoute(route)...)
	}, func() chunkMiner {
		return acquireWorker(g, m, t, opts)
	})
	if res.Truncated && opts.Obs != nil {
		opts.Obs.Counter("mackey.truncated_runs").Add(1)
	}
	counts := total.Counts
	if t != nil && len(counts) < t.NumMotifs {
		counts = make([]int64, t.NumMotifs) // the run never started
	}
	return TrieResult{Result: res, Counts: counts, Shared: total.Shared}, err
}

// mineChunk mines the roots [from, to).
func (w *worker) mineChunk(from, to int64, cur *int64) bool {
	for root := temporal.EdgeID(from); root < temporal.EdgeID(to); root++ {
		if w.stopped {
			break
		}
		*cur = int64(root)
		w.mineRoot(root)
	}
	return w.stopped
}

// flush settles the tail of the worker's progress.
func (w *worker) flush() {
	w.checkpoint()
	w.foldCacheStats()
}

func (w *worker) tally() tally { return tally{Stats: w.stats, Counts: w.counts, Shared: w.shared} }

// fold publishes the worker's counters into its own registry shard,
// plus the per-worker utilization distribution — a flat busy-time
// histogram with an idle tail is the work-stealing balance signal.
func (w *worker) fold(reg *obs.Registry, wi int) {
	publishStats(reg, wi, w.stats)
	reg.Histogram("mackey.worker_nodes").Observe(w.stats.NodesExpanded)
}

// workerCount resolves a run's parallelism: < 1 means GOMAXPROCS, and
// never more workers than units of work (but at least one).
func workerCount(workers, units int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, units))
}

// chunkMiner is one worker of a chunk scheduler run: the trie
// executor's or a star kernel's.
type chunkMiner interface {
	// mineChunk mines chunk [from, to), keeping *cur on the root edge it
	// is at for a panic report, and reports whether the worker stopped.
	mineChunk(from, to int64, cur *int64) bool
	// flush settles the worker's counters into the controller.
	flush()
	// tally is the worker's work so far, as of its last flush.
	tally() tally
	// fold publishes the worker's counters into reg as shard wi.
	fold(reg *obs.Registry, wi int)
	release()
}

// chunkRun is one run of the chunk scheduler, the one scheduler of the
// trie executor and the star kernels: workers pull chunk indexes through
// a shared atomic cursor under one controller, with panic containment,
// the "mackey.chunk" chaos site, and per-worker busy and chunk tallies
// for the observability fold. Each tally is written only by its owning
// worker goroutine and read after schedule returns. A plain run stops at
// the first failure; a supervised one (see SupervisorOptions) retries
// and quarantines failed chunks and records finished ones.
type chunkRun struct {
	ctl     *runctl.Controller
	sup     *Supervision // nil: a plain run
	bounds  []int64      // chunk k is bounds[k]..bounds[k+1]
	acquire func() chunkMiner
	ws      []chunkMiner
	cursor  atomic.Int64
	// observed turns on per-worker timing; the uninstrumented run takes
	// no clock readings.
	observed bool
	start    time.Time

	panicked  []bool
	perChunks []int64
	perBusy   []time.Duration
	errs      []error

	// A supervised run's chunk ledger, guarded by sup.mu: its checkpoint
	// section, whether each chunk is settled and whether it was
	// requeued, its tries and failures, the try each worker holds, and
	// the merged tally of the finished chunks.
	section                    int
	done, requeued             []bool
	issued, fails              []int
	held                       []held
	pending, settled, poisoned int
	kept                       tally
	obs                        *obs.Registry
}

// runChunks runs the chunk scheduler over the chunks of bounds on at
// most workers workers from acquire, and returns the run's merged tally
// and result; span names its trace span. Under opts.Supervision the run
// is supervised: ident, called only then, names it for its checkpoint
// section, whose bounds replace bounds on resume.
func runChunks(opts Options, workers int, bounds []int64, span string, ident func() []int64, acquire func() chunkMiner) (tally, Result, error) {
	r := &chunkRun{ctl: opts.Ctl, sup: opts.Supervision, acquire: acquire, observed: opts.Obs != nil || opts.Trace != nil, obs: opts.Obs}
	if r.sup != nil {
		var err error
		if bounds, workers, err = r.open(ident(), bounds, workers); err != nil {
			// A checkpoint this run cannot resume fails the query before
			// it mines anything.
			r.ctl.Stop(runctl.Failed)
			return tally{}, Result{Truncated: true, StopReason: runctl.Failed}, err
		}
	}
	r.bounds = bounds
	r.ws = make([]chunkMiner, workers)
	r.panicked = make([]bool, workers)
	r.perChunks = make([]int64, workers)
	r.perBusy = make([]time.Duration, workers)
	r.errs = make([]error, workers)
	if r.observed {
		r.start = time.Now()
	}
	r.schedule()

	total := r.total()
	res := Result{Matches: total.Stats.Matches, Stats: total.Stats}
	var err error
	res.Truncated, res.StopReason, err = r.outcome()
	if opts.Obs != nil {
		for wi, w := range r.ws {
			w.fold(opts.Obs, wi)
		}
		r.publish(opts.Obs)
		publishController(opts.Obs, r.ctl)
	}
	r.trace(opts.Trace, span)
	for wi, w := range r.ws {
		if !r.panicked[wi] {
			// A panicked worker's bindings are mid-tree; abandon it to the
			// GC rather than pooling corrupt state.
			w.release()
		}
	}
	return total, res, err
}

// schedule runs the workers to completion. Each acquires its state on
// its own goroutine and flushes it after its last chunk, unless a panic
// left it corrupt.
func (r *chunkRun) schedule() {
	plan := r.ctl.FaultPlan()
	var wg sync.WaitGroup
	for wi := range r.ws {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var busyStart time.Time
			if r.observed {
				busyStart = time.Now()
			}
			r.ws[wi] = r.acquire()
			var cur int64 // the root edge a try is at, for a panic report
			for {
				k, ok := r.next()
				if !ok || !r.attempt(wi, k, plan, &cur) {
					break
				}
			}
			if !r.panicked[wi] {
				r.ws[wi].flush()
			}
			if r.observed {
				r.perBusy[wi] = time.Since(busyStart)
			}
		}(wi)
	}
	wg.Wait()
}

// next is a worker's next chunk: the shared cursor's, then, when
// supervised, a stalled chunk the watchdog hands over.
func (r *chunkRun) next() (int, bool) {
	if i := r.cursor.Add(1) - 1; i < int64(len(r.bounds)-1) {
		return int(i), true
	}
	if r.sup != nil {
		return r.stalled()
	}
	return 0, false
}

// attempt mines chunk k and reports whether worker wi goes on pulling
// chunks. A plain run tries once and stops at a failure — an injected
// fault as FaultInjected, a panic as Failed — explicitly attributed,
// never silently short-counted. A supervised run records each try and
// tries again, after a backoff, while the policy asks for a retry.
func (r *chunkRun) attempt(wi, k int, plan *faultinject.Plan, cur *int64) bool {
	if r.sup == nil {
		_, stopped, err := r.try(wi, k, 0, plan, cur)
		if err != nil {
			r.errs[wi] = err
			if _, ok := err.(*runctl.PanicError); ok {
				r.ctl.Stop(runctl.Failed)
			} else {
				r.ctl.Stop(runctl.FaultInjected)
			}
		}
		return err == nil && !stopped
	}
	for {
		seq, ok := r.claim(wi, k)
		if !ok {
			return true // settled by a resume or another try
		}
		t, stopped, err := r.try(wi, k, seq, plan, cur)
		delay, retry := r.record(wi, k, t, err, stopped)
		if !retry {
			return !stopped
		}
		if time.Sleep(delay); r.ctl.Stopped() {
			return false
		}
	}
}

// try mines chunk k once, as attempt seq, and returns the tally it added
// (when supervised) and whether the worker stopped, or its failure: an
// injected fault, or a panic, which is contained to the try — the
// worker's state is marked corrupt and replaced before its next try —
// and reported at root edge *cur.
func (r *chunkRun) try(wi, k, seq int, plan *faultinject.Plan, cur *int64) (t tally, stopped bool, err error) {
	if r.panicked[wi] {
		r.ws[wi], r.panicked[wi] = r.acquire(), false
	}
	w := r.ws[wi]
	*cur = int64(temporal.InvalidEdge)
	defer func() {
		if v := recover(); v != nil {
			r.panicked[wi] = true
			err = &runctl.PanicError{Worker: wi, Root: *cur, Value: v}
			if inj, ok := v.(*faultinject.Injected); ok {
				err = inj
			}
		}
	}()
	if plan != nil {
		// Chaos site "mackey.chunk": an Error or Drop fails the try
		// before it mines; a Panic unwinds into the recover above.
		if err = plan.Fire("mackey.chunk", int64(k), seq); err != nil {
			return t, false, err
		}
	}
	r.perChunks[wi]++
	if r.sup == nil {
		return t, w.mineChunk(r.bounds[k], r.bounds[k+1], cur), nil
	}
	before := w.tally()
	before.Counts = slices.Clone(before.Counts)
	stopped = w.mineChunk(r.bounds[k], r.bounds[k+1], cur)
	w.flush()
	return w.tally().since(before), stopped, nil
}

// total is the run's merged tally: every worker's, or when supervised
// the settled chunks'.
func (r *chunkRun) total() tally {
	t := tally{Counts: make([]int64, len(r.ws[0].tally().Counts))}
	if r.sup != nil {
		t.add(r.kept)
		return t
	}
	for _, w := range r.ws {
		t.add(w.tally())
	}
	return t
}

// outcome ends the run and reports its truncation and error: a
// supervised run's from Supervision.finish; a plain run is truncated iff
// its controller stopped, and its error is the first worker's.
func (r *chunkRun) outcome() (bool, runctl.Reason, error) {
	if r.sup != nil {
		return r.finish()
	}
	var err error
	for _, e := range r.errs {
		if e != nil {
			err = e
			break
		}
	}
	return r.ctl.Stopped(), r.ctl.Reason(), err
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

// trace records one span per worker plus the run's span named span
// under parent.
func (r *chunkRun) trace(parent *obs.SpanRef, span string) {
	for wi := range r.perBusy {
		parent.Record("mackey.worker", int32(wi), r.start, r.perBusy[wi])
	}
	parent.Record(span, -1, r.start, time.Since(r.start))
}

// partitionRoots splits the half-open root index range [lo, hi) into
// contiguous chunk boundaries: chunk k is bounds[k]..bounds[k+1]. Target
// chunk size is n / (workers·16), clamped to [1, 256] roots, but every
// boundary is snapped forward past timestamp ties so each chunk covers a
// half-open time interval — a time partition of the edge list, not just
// an index partition. The sharding layer hands each worker process one
// such range; the in-process scheduler partitions identically inside it.
func partitionRoots(g *temporal.Graph, workers int, lo, hi int) []int64 {
	n := max(hi-lo, 0)
	chunk := min(max(n/(workers*16), 1), 256)
	bounds := make([]int64, 1, n/chunk+2)
	bounds[0] = int64(lo)
	for b := lo + chunk; b < hi; {
		for b < hi && g.Edges[b].Time == g.Edges[b-1].Time {
			b++ // never split a timestamp tie across chunks
		}
		if b >= hi {
			break
		}
		bounds = append(bounds, int64(b))
		b += chunk
	}
	return append(bounds, int64(hi))
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
