package mackey

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mint/internal/checkpoint"
	"mint/internal/faultinject"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// MineParallelSupervised is MineParallelCtx wrapped in a fault-tolerant
// supervisor. The unit of supervision is the time-partitioned root chunk
// (partitionRoots over the run's root span): chunks are complete,
// mutually independent search trees, so a failed chunk can be retried —
// and a completed chunk checkpointed — without touching any other
// chunk's work.
//
// The supervisor adds three behaviors on top of the plain parallel miner:
//
//   - Retry with capped exponential backoff: a chunk whose attempt fails
//     (worker panic, injected fault) is requeued up to MaxAttempts times.
//     Panics are contained to the attempt — the offending worker state is
//     abandoned, the run continues.
//   - Quarantine: a chunk that exhausts its attempts is poisoned — excluded
//     from the run and reported in SupervisedResult.Poisoned (and the
//     checkpoint file) instead of killing the run. A run with poisoned
//     chunks is explicitly Truncated, never silently short-counted.
//   - Watchdog: workers heartbeat on every root task; a worker that goes
//     StallTimeout without beating while holding a chunk has that chunk
//     requeued to another worker (first completion wins — chunk results
//     are deterministic, so duplicates are safe to discard).
//
// With a CheckpointPath, completed chunks are recorded crash-safely; a
// later run with Resume set mines only the missing chunks and merges the
// recorded per-chunk stats, producing match counts identical to an
// uninterrupted run.
type SupervisorOptions struct {
	// MaxAttempts is the number of times one chunk may be attempted before
	// it is poisoned; values < 1 mean 2 (the ISSUE's two-strike rule).
	MaxAttempts int

	// BackoffBase and BackoffCap shape the retry delay:
	// base<<failures, clamped to cap. Defaults 5ms / 250ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// StallTimeout arms the watchdog: a worker that holds a chunk for this
	// long without a heartbeat has the chunk requeued (once) to another
	// worker. Zero disables the watchdog.
	StallTimeout time.Duration

	// CheckpointPath, when non-empty, enables crash-safe progress
	// snapshots at that path. CheckpointEvery controls flush granularity
	// (completed chunks per rewrite; values < 1 mean 8).
	CheckpointPath  string
	CheckpointEvery int

	// CheckpointInterval rate-limits snapshot rewrites: once one lands,
	// completion-triggered flushes are suppressed for this long (each
	// flush is an fsync'd rewrite; without a floor, fast workloads spend
	// more time in fsync than mining). At most this much completed work
	// can need re-mining after a crash. 0 means 200ms; negative disables
	// the throttle. Quarantine events and the final flush always write.
	CheckpointInterval time.Duration

	// Resume loads an existing checkpoint at CheckpointPath (if any) and
	// skips its completed chunks. The snapshot's fingerprint must match
	// this (graph, motif, bounds) or the run errors out — a stale file can
	// never silently corrupt counts.
	Resume bool
}

func (so SupervisorOptions) normalized() SupervisorOptions {
	if so.MaxAttempts < 1 {
		so.MaxAttempts = 2
	}
	if so.BackoffBase <= 0 {
		so.BackoffBase = 5 * time.Millisecond
	}
	if so.BackoffCap <= 0 {
		so.BackoffCap = 250 * time.Millisecond
	}
	if so.CheckpointEvery < 1 {
		so.CheckpointEvery = 8
	}
	if so.CheckpointInterval == 0 {
		so.CheckpointInterval = 200 * time.Millisecond
	} else if so.CheckpointInterval < 0 {
		so.CheckpointInterval = 0
	}
	return so
}

// ChunkFault describes one quarantined chunk.
type ChunkFault struct {
	// Chunk is the index into the run's chunk bounds.
	Chunk int
	// Attempts is how many times the chunk was tried before quarantine.
	Attempts int
	// Err is the last attempt's failure, rendered as a string.
	Err string
}

// SupervisedResult is a Result plus the supervisor's fault ledger.
type SupervisedResult struct {
	Result

	// Poisoned lists chunks quarantined after exhausting their attempts.
	// Non-empty Poisoned implies Truncated: the counts are an exact tally
	// of the non-poisoned chunks, a lower bound on the true count.
	Poisoned []ChunkFault

	// Retries counts failed attempts that were requeued; Requeues counts
	// watchdog-triggered duplicate attempts of stalled chunks.
	Retries  int
	Requeues int

	// ChunksTotal/ChunksDone/ChunksResumed describe chunk-level progress:
	// total chunks in the partition, chunks completed (including resumed),
	// and the subset satisfied from the checkpoint rather than mined.
	ChunksTotal   int
	ChunksDone    int
	ChunksResumed int
}

// fingerprintFor binds a checkpoint to its run: graph shape (node/edge
// counts, time extent), the full motif (edges and δ), and the exact chunk
// boundaries. Any drift — different input file, different motif, different
// partition — changes the fingerprint and Resume refuses the snapshot.
func fingerprintFor(g *temporal.Graph, m *temporal.Motif, bounds []temporal.EdgeID) string {
	ints := make([]int64, 0, 8+2*len(m.Edges)+len(bounds))
	ints = append(ints, int64(g.NumNodes()), int64(g.NumEdges()))
	if n := g.NumEdges(); n > 0 {
		ints = append(ints, int64(g.Edges[0].Time), int64(g.Edges[n-1].Time))
	}
	ints = append(ints, int64(m.NumNodes()), int64(m.NumEdges()), int64(m.Delta))
	for _, e := range m.Edges {
		ints = append(ints, int64(e.Src), int64(e.Dst))
	}
	for _, b := range bounds {
		ints = append(ints, int64(b))
	}
	return checkpoint.Fingerprint("mackey", ints)
}

// attempt is one unit of queued work: mine chunk under attempt ordinal seq
// (the ordinal feeds the fault plan, so retries re-roll their fate).
type attempt struct {
	chunk int
	seq   int
}

// outcome is one finished attempt.
type outcome struct {
	chunk   int
	seq     int
	stats   Stats
	err     error
	stopped bool // the worker saw a stop request mid-chunk; chunk incomplete
}

// MineParallelSupervised mines (g, m) under the supervisor described on
// SupervisorOptions. The returned error is reserved for setup failures
// (an unreadable or mismatched checkpoint); worker faults never surface as
// errors — they are retried, then quarantined into Poisoned.
func MineParallelSupervised(ctx context.Context, g *temporal.Graph, m *temporal.Motif,
	opts Options, b runctl.Budget, sup SupervisorOptions) (SupervisedResult, error) {

	sup = sup.normalized()
	if opts.Ctl == nil {
		opts.Ctl = runctl.New(ctx, b)
	}
	ctl := opts.Ctl
	plan := ctl.FaultPlan()

	workers := opts.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}

	// Establish the chunk partition over the run's root span. A resumed
	// run reuses the bounds recorded in the snapshot verbatim, so resume
	// is independent of the current worker count (bounds depend on the
	// partitioning worker count, not the mining one).
	lo, hi := opts.rootSpan(g.NumEdges())
	bounds := partitionRoots(g, workers, temporal.EdgeID(lo), temporal.EdgeID(hi))
	var prev *checkpoint.File
	if sup.Resume && sup.CheckpointPath != "" {
		f, err := checkpoint.Load(sup.CheckpointPath, "")
		if err != nil {
			return SupervisedResult{}, err
		}
		if f != nil {
			loaded := make([]temporal.EdgeID, len(f.Bounds))
			for i, b := range f.Bounds {
				loaded[i] = temporal.EdgeID(b)
			}
			if fp := fingerprintFor(g, m, loaded); fp != f.Fingerprint {
				return SupervisedResult{}, fmt.Errorf(
					"mackey: checkpoint %s does not match this run (fingerprint %q, want %q)",
					sup.CheckpointPath, f.Fingerprint, fp)
			}
			if n := len(loaded); n < 2 || loaded[0] != temporal.EdgeID(lo) || loaded[n-1] != temporal.EdgeID(hi) {
				return SupervisedResult{}, fmt.Errorf(
					"mackey: checkpoint %s was written for other root edges than this run's [%d, %d)",
					sup.CheckpointPath, lo, hi)
			}
			bounds = loaded
			prev = f
		}
	}
	fingerprint := fingerprintFor(g, m, bounds)
	numChunks := len(bounds) - 1

	var sres SupervisedResult
	sres.ChunksTotal = numChunks

	// Fold the resumed chunks' recorded stats; their match counts are
	// exact, so the merged total equals an uninterrupted run's.
	var total Stats
	done := make([]bool, numChunks)
	if prev != nil {
		for _, c := range prev.Chunks {
			if done[c.Index] {
				continue
			}
			done[c.Index] = true
			sres.ChunksResumed++
			var s Stats
			if len(c.Payload) > 0 {
				if err := json.Unmarshal(c.Payload, &s); err != nil {
					return SupervisedResult{}, fmt.Errorf(
						"mackey: checkpoint chunk %d payload: %w", c.Index, err)
				}
			} else {
				s.Matches = c.Matches
			}
			total.Add(s)
		}
		for _, p := range prev.Poisoned {
			if done[p.Index] {
				continue
			}
			done[p.Index] = true // excluded, not re-mined
			sres.Poisoned = append(sres.Poisoned, ChunkFault{Chunk: p.Index, Attempts: p.Attempts, Err: p.Error})
		}
	}

	var ck *checkpoint.Writer
	if sup.CheckpointPath != "" {
		ints := make([]int64, len(bounds))
		for i, b := range bounds {
			ints[i] = int64(b)
		}
		if prev != nil {
			ck = checkpoint.NewWriterFrom(sup.CheckpointPath, prev, sup.CheckpointEvery)
		} else {
			ck = checkpoint.NewWriter(sup.CheckpointPath, fingerprint, ints, sup.CheckpointEvery)
		}
		ck.SetMinInterval(sup.CheckpointInterval)
	}

	pending := 0
	for k := 0; k < numChunks; k++ {
		if !done[k] {
			pending++
		}
	}
	if workers > pending {
		workers = max(1, pending)
	}

	if pending > 0 {
		sv := &supervisor{
			g: g, m: m, opts: opts, plan: plan,
			bounds: bounds,
			hb:     runctl.NewHeartbeats(workers),
			// Sends never block: every queued attempt is either the chunk's
			// initial issue, one of its < MaxAttempts retries, or its single
			// watchdog requeue.
			work:    make(chan attempt, pending*(sup.MaxAttempts+2)),
			quit:    make(chan struct{}),
			results: make(chan outcome, workers),
		}
		sv.current = make([]atomic.Int64, workers)
		for k := 0; k < numChunks; k++ {
			if !done[k] {
				sv.work <- attempt{chunk: k, seq: 0}
			}
		}

		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				// One worker per goroutine, reused across chunks, exactly
				// like the unsupervised parallel miner: chunks pulled by
				// the same worker stay temporally adjacent, so its window
				// cache keeps advancing monotonically instead of being
				// reset cold 78 times a run. Per-chunk stats come out as a
				// Sub delta of the worker's cumulative counters.
				var w *worker
				defer func() {
					if w != nil {
						w.release()
					}
				}()
				for {
					select {
					case <-sv.quit:
						return
					case at := <-sv.work:
						sv.hb.Beat(wi)
						sv.current[wi].Store(int64(at.chunk) + 1)
						if w == nil {
							w = acquireWorker(sv.g, sv.m, nil, sv.opts)
						}
						out, keep := sv.mineChunk(w, wi, at)
						if !keep {
							w = nil
						}
						sv.current[wi].Store(0)
						sv.hb.Beat(wi)
						select {
						case sv.results <- out:
						case <-sv.quit:
							return
						}
					}
				}
			}(wi)
		}

		// Supervisor loop: consume outcomes, retry/poison failures, poll
		// the controller, and scan for stalls. The ticker doubles as the
		// context/deadline poll — workers only poll inside long chunks.
		tickEvery := 25 * time.Millisecond
		if sup.StallTimeout > 0 && sup.StallTimeout/4 < tickEvery {
			tickEvery = sup.StallTimeout / 4
		}
		tick := time.NewTicker(tickEvery)
		issued := make([]int, numChunks) // attempt ordinals handed out
		fails := make([]int, numChunks)  // failed attempts observed
		requeued := make([]bool, numChunks)
		for k := range issued {
			issued[k] = 1
		}
		resolved := 0
		for resolved < pending && !ctl.Stopped() {
			select {
			case out := <-sv.results:
				if done[out.chunk] {
					break // duplicate (watchdog) attempt lost the race
				}
				switch {
				case out.err != nil:
					fails[out.chunk]++
					if fails[out.chunk] >= sup.MaxAttempts {
						pf := ChunkFault{Chunk: out.chunk, Attempts: fails[out.chunk], Err: out.err.Error()}
						sres.Poisoned = append(sres.Poisoned, pf)
						done[out.chunk] = true
						resolved++
						_ = ck.MarkPoisoned(pf.Chunk, pf.Attempts, pf.Err)
						break
					}
					sres.Retries++
					seq := issued[out.chunk]
					issued[out.chunk]++
					delay := runctl.Backoff(fails[out.chunk]-1, sup.BackoffBase, sup.BackoffCap)
					chunk := out.chunk
					time.AfterFunc(delay, func() {
						select {
						case sv.work <- attempt{chunk: chunk, seq: seq}:
						case <-sv.quit:
						}
					})
				case out.stopped:
					// Chunk incomplete because the run is stopping; the
					// loop condition exits on the next iteration. Nothing
					// is recorded — a checkpointed chunk is always whole.
				default:
					done[out.chunk] = true
					resolved++
					sres.ChunksDone++
					total.Add(out.stats)
					_ = ck.MarkDone(out.chunk, out.stats.Matches, out.stats)
				}
			case <-tick.C:
				ctl.Checkpoint(0, 0)
				if sup.StallTimeout <= 0 {
					break
				}
				now := time.Now()
				for wi := range sv.current {
					held := sv.current[wi].Load()
					if opts.Obs != nil {
						opts.Obs.Gauge(fmt.Sprintf("mackey.supervisor.heartbeat_age_ns.w%d", wi)).
							Set(int64(sv.hb.Age(wi, now)))
					}
					if held == 0 {
						continue
					}
					k := int(held - 1)
					if sv.hb.Age(wi, now) <= sup.StallTimeout || done[k] || requeued[k] {
						continue
					}
					requeued[k] = true
					sres.Requeues++
					seq := issued[k]
					issued[k]++
					select {
					case sv.work <- attempt{chunk: k, seq: seq}:
					case <-sv.quit:
					}
				}
			}
		}
		tick.Stop()
		close(sv.quit)
		drained := make(chan struct{})
		go func() { wg.Wait(); close(drained) }()
	drain:
		for {
			select {
			case <-sv.results:
				// Late outcomes after a stop are discarded: a truncated
				// supervised result reports recorded chunks only, which is
				// exactly what a subsequent Resume will re-mine.
			case <-drained:
				break drain
			}
		}
	}

	if ck != nil {
		_ = ck.Flush()
	}

	sres.Result = Result{Matches: total.Matches, Stats: total}
	sres.ChunksDone += sres.ChunksResumed
	switch {
	case ctl.Stopped():
		sres.Truncated = true
		sres.StopReason = ctl.Reason()
	case len(sres.Poisoned) > 0:
		sres.Truncated = true
		sres.StopReason = runctl.Failed
	}

	if opts.Obs != nil {
		publishStats(opts.Obs, 0, total)
		if sres.Truncated {
			opts.Obs.Counter("mackey.truncated_runs").Add(1)
		}
		if sres.Retries > 0 {
			opts.Obs.Counter("mackey.supervisor.retries").Add(int64(sres.Retries))
		}
		if sres.Requeues > 0 {
			opts.Obs.Counter("mackey.supervisor.requeues").Add(int64(sres.Requeues))
		}
		if n := len(sres.Poisoned); n > 0 {
			opts.Obs.Counter("mackey.supervisor.poisoned").Add(int64(n))
		}
		publishController(opts.Obs, ctl)
	}
	return sres, nil
}

// supervisor is the shared state of one supervised run.
type supervisor struct {
	g    *temporal.Graph
	m    *temporal.Motif
	opts Options
	plan *faultinject.Plan

	bounds  []temporal.EdgeID
	hb      *runctl.Heartbeats
	current []atomic.Int64 // chunk+1 a worker is mining; 0 = idle

	work    chan attempt
	quit    chan struct{}
	results chan outcome
}

// mineChunk runs one attempt of one chunk on a freshly acquired worker.
// Panics — injected or real — are contained here: the attempt fails, the
// corrupt worker state is abandoned to the GC, and the outcome carries the
// failure for the supervisor to retry or quarantine.
//
// Note on budgets: a failed attempt's partial nodes/matches have already
// been flushed into the controller, so budget accounting may slightly
// overcount under retries. Final results are unaffected — they merge only
// completed chunks' private stats.
func (sv *supervisor) mineChunk(w *worker, wi int, at attempt) (out outcome, keep bool) {
	out.chunk, out.seq = at.chunk, at.seq
	// The worker's counters are cumulative over its whole tenure; this
	// chunk's contribution is the Sub delta. Snapshot taken after the
	// previous chunk's checkpoint()/foldCacheStats(), so every field —
	// including the absolute-set cache counters — differences cleanly.
	prev := w.stats
	var cur temporal.EdgeID = temporal.InvalidEdge
	defer func() {
		if r := recover(); r != nil {
			if inj, ok := r.(*faultinject.Injected); ok {
				out.err = inj
			} else {
				out.err = &runctl.PanicError{Worker: wi, Root: int64(cur), Value: r}
			}
			// keep stays false: abandon w to the GC, its bindings are
			// mid-tree and must never reach the pool.
		}
	}()
	if err := sv.plan.Fire("mackey.chunk", int64(at.chunk), at.seq); err != nil {
		// Clean failure before any mining: the worker is untouched and
		// stays reusable for the next attempt.
		out.err = err
		return out, true
	}
	for root := sv.bounds[at.chunk]; root < sv.bounds[at.chunk+1]; root++ {
		if w.stopped {
			break
		}
		cur = root
		w.mineRoot(root)
		sv.hb.Beat(wi)
	}
	w.checkpoint()
	w.foldCacheStats()
	out.stats = w.stats.Sub(prev)
	out.stopped = w.stopped
	if out.stopped {
		// Stopped mid-tree: bindings may be live. Scrub-and-pool now and
		// hand the goroutine a fresh worker if it ever mines again.
		w.release()
		return out, false
	}
	return out, true
}
