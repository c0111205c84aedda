package mackey

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"mint/internal/checkpoint"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// SupervisorOptions configures supervision, the chunk scheduler's
// fault-tolerance policy. The unit of supervision is the scheduler's
// chunk: chunks are complete, mutually independent search trees (or
// centre ranges of a star kernel), so a failed chunk can be retried —
// and a completed chunk checkpointed — without touching any other
// chunk's work. A supervised run reports whole chunks only: a chunk cut
// short by a stop is dropped, never half-counted.
//
// Supervision adds three behaviors to the plain scheduler:
//
//   - Retry with capped exponential backoff: a chunk whose attempt fails
//     (worker panic, injected fault) is tried again by the same worker
//     after the backoff, up to MaxAttempts attempts. Panics are contained
//     to the attempt — the offending worker state is abandoned, the run
//     continues.
//   - Quarantine: a chunk that exhausts its attempts is poisoned — excluded
//     from the run and reported in SupervisedResult.Poisoned (and the
//     checkpoint file) instead of killing the run. A run with poisoned
//     chunks is explicitly Truncated, never silently short-counted.
//   - Watchdog: a chunk attempt held StallTimeout without finishing is
//     taken over once by a worker with nothing else to mine (first
//     completion wins — chunk results are deterministic, so duplicates
//     are safe to discard).
//
// With a CheckpointPath, completed chunks are recorded crash-safely; a
// later run with Resume set mines only the missing chunks and merges the
// recorded per-chunk tallies, producing counts identical to an
// uninterrupted run.
type SupervisorOptions struct {
	// MaxAttempts is the number of times one chunk may be attempted before
	// it is poisoned; values < 1 mean 2 (a two-strike rule).
	MaxAttempts int

	// BackoffBase and BackoffCap shape the retry delay:
	// base<<failures, clamped to cap. Defaults 5ms / 250ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// StallTimeout arms the watchdog: a chunk attempt held this long is
	// taken over (once) by an idle worker. Zero disables the watchdog.
	// It times whole attempts, not progress within one, so it must
	// exceed the time a healthy chunk takes (up to 256 root trees, or a
	// star kernel's centre range): a slow chunk held past it is tried in
	// duplicate, and the duplicate's failures count toward MaxAttempts.
	StallTimeout time.Duration

	// CheckpointPath, when non-empty, enables crash-safe progress
	// snapshots at that path, one section per scheduler run of the
	// query. CheckpointEvery controls flush granularity (completed
	// chunks per rewrite; values < 1 mean 8).
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
	// skips its completed chunks. Each section's fingerprint must match
	// its scheduler run (graph, route, motifs, δ, root span and bounds)
	// or the run errors out — a stale file can never silently corrupt
	// counts.
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
	// Run is the scheduler run's ordinal within its query, which is also
	// its checkpoint section: 0 for a single motif, and for a motif set
	// the co-mined groups and star kernels in the order they ran.
	Run int
	// Chunk is the index into the run's chunk bounds.
	Chunk int
	// Attempts is how many times the chunk was tried before quarantine.
	Attempts int
	// Err is the last attempt's failure, rendered as a string.
	Err string
}

// SupervisedResult is a supervised query's fault ledger and chunk
// progress, summed over its scheduler runs.
type SupervisedResult struct {
	// Poisoned lists chunks quarantined after exhausting their attempts.
	// Non-empty Poisoned implies Truncated: the counts are an exact tally
	// of the non-poisoned chunks, a lower bound on the true count.
	Poisoned []ChunkFault

	// Retries counts failed attempts that were retried; Requeues counts
	// watchdog-triggered duplicate attempts of stalled chunks.
	Retries  int
	Requeues int

	// ChunksTotal/ChunksDone/ChunksResumed describe chunk-level progress:
	// total chunks in the partitions, chunks completed (including
	// resumed), and the subset satisfied from the checkpoint rather than
	// mined.
	ChunksTotal   int
	ChunksDone    int
	ChunksResumed int
}

// Supervision is the supervision of one query: its settings, its
// checkpoint and its ledger. Every scheduler run of the query —
// MineParallelCtx, MineTrieCtx or MineStarCtx; for a set, one per
// co-mined group and star kernel — takes the checkpoint's next section,
// so a resumed query must start the same runs in the same order. Each
// run keeps its own chunk ledger (see chunkRun). Use one per query.
type Supervision struct {
	cfg SupervisorOptions

	mu     sync.Mutex // guards the fields below and every run's chunk ledger
	res    SupervisedResult
	opened bool
	err    error            // loading the checkpoint failed
	prev   *checkpoint.File // the snapshot being resumed, if any
	ck     *checkpoint.Writer
	runs   int // sections taken so far
}

// Supervise starts the supervision of one query under cfg.
func Supervise(cfg SupervisorOptions) *Supervision {
	return &Supervision{cfg: cfg.normalized()}
}

// Result is the ledger of the query's scheduler runs so far.
func (s *Supervision) Result() SupervisedResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.res
	res.Poisoned = slices.Clone(res.Poisoned)
	return res
}

// tally is the exact work of some chunks — one worker's, one chunk's or
// a whole run's: what a checkpoint records per chunk and a resume merges
// back. Counts (per trie motif) and Shared are the trie executor's; a
// star kernel's tally is its Stats.Matches.
type tally struct {
	Stats  Stats   `json:"stats"`
	Counts []int64 `json:"counts,omitempty"`
	Shared int64   `json:"shared,omitempty"`
}

func (t *tally) add(o tally) {
	t.Stats.Add(o.Stats)
	t.Shared += o.Shared
	if n := len(o.Counts) - len(t.Counts); n > 0 {
		t.Counts = append(t.Counts, make([]int64, n)...)
	}
	for i, c := range o.Counts {
		t.Counts[i] += c
	}
}

// since is t minus prev, an earlier reading of the same counters.
func (t tally) since(prev tally) tally {
	d := tally{Stats: t.Stats.Sub(prev.Stats), Shared: t.Shared - prev.Shared, Counts: slices.Clone(t.Counts)}
	for i, c := range prev.Counts {
		d.Counts[i] -= c
	}
	return d
}

// held is the chunk a worker is trying; zero when idle.
type held struct {
	chunk int
	since time.Time
}

// open starts supervising r as the query's next scheduler run, named
// by ident (its fingerprint less the bounds), over the chunks of bounds
// on at most workers workers. On resume the run's section supplies the
// bounds and the chunks already settled. It returns the bounds to mine
// and the worker count.
func (r *chunkRun) open(ident, bounds []int64, workers int) ([]int64, int, error) {
	s := r.sup
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.opened {
		s.opened = true
		if path := s.cfg.CheckpointPath; path != "" {
			if s.cfg.Resume {
				s.prev, s.err = checkpoint.Load(path)
			}
			s.ck = checkpoint.NewWriter(path, s.prev, s.cfg.CheckpointEvery).SetMinInterval(s.cfg.CheckpointInterval)
		}
	}
	if s.err != nil {
		return nil, 0, s.err
	}
	var prev checkpoint.Run
	if r.section = s.runs; s.prev != nil && r.section < len(s.prev.Runs) {
		prev, bounds = s.prev.Runs[r.section], s.prev.Runs[r.section].Bounds
		if fp := fingerprint(ident, bounds); fp != prev.Fingerprint {
			return nil, 0, fmt.Errorf("mackey: checkpoint %s section %d was written for another run "+
				"(graph, route, motifs, δ or root span; fingerprint %q, want %q)",
				s.cfg.CheckpointPath, r.section, prev.Fingerprint, fp)
		}
	} else {
		s.ck.AddRun(fingerprint(ident, bounds), bounds)
	}
	s.runs++
	n := len(bounds) - 1
	r.done, r.requeued, r.issued, r.fails = make([]bool, n), make([]bool, n), make([]int, n), make([]int, n)
	s.res.ChunksTotal += n
	for _, c := range prev.Chunks {
		var t tally
		if err := json.Unmarshal(c.Payload, &t); err != nil {
			return nil, 0, fmt.Errorf("mackey: checkpoint %s section %d chunk %d: %w", s.cfg.CheckpointPath, r.section, c.Index, err)
		}
		if !r.done[c.Index] {
			r.done[c.Index] = true
			r.kept.add(t)
			s.res.ChunksResumed++
			s.res.ChunksDone++
		}
	}
	for _, q := range prev.Poisoned {
		if !r.done[q.Index] {
			r.done[q.Index] = true // excluded, not re-mined
			r.poisoned++
			s.res.Poisoned = append(s.res.Poisoned, ChunkFault{Run: r.section, Chunk: q.Index, Attempts: q.Attempts, Err: q.Error})
		}
	}
	for _, done := range r.done {
		if !done {
			r.pending++
		}
	}
	workers = max(1, min(workers, r.pending))
	r.held = make([]held, workers)
	return bounds, workers, nil
}

// fingerprint binds a checkpoint section to its scheduler run.
func fingerprint(ident, bounds []int64) string {
	return checkpoint.Fingerprint("mackey", slices.Concat(ident, bounds))
}

// runIdent is a run's fingerprint less its bounds: the graph's shape
// and time extent, the root span [lo, hi), and the route's own ints.
func runIdent(g *temporal.Graph, lo, hi int, route ...int64) []int64 {
	ints := []int64{int64(g.NumNodes()), int64(g.NumEdges()), int64(lo), int64(hi)}
	if n := g.NumEdges(); n > 0 {
		ints = append(ints, int64(g.Edges[0].Time), int64(g.Edges[n-1].Time))
	}
	return append(ints, route...)
}

// trieRoute names a trie run for runIdent: route 0, δ, the motif count,
// then every node depth-first — its edge, child count and terminal
// motifs.
func trieRoute(t *Trie) []int64 {
	ints := []int64{0, int64(t.Delta), int64(t.NumMotifs)}
	var walk func(n *Node)
	walk = func(n *Node) {
		ints = append(ints, int64(n.Edge.Src), int64(n.Edge.Dst), int64(len(n.Children)), int64(len(n.Terminal)))
		for _, i := range n.Terminal {
			ints = append(ints, int64(i))
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return ints
}

// claim begins worker wi's try of chunk k and returns its attempt
// ordinal, which feeds the fault plan so retries re-roll their fate, or
// false when k is already settled.
func (r *chunkRun) claim(wi, k int) (int, bool) {
	r.sup.mu.Lock()
	defer r.sup.mu.Unlock()
	if r.done[k] {
		return 0, false
	}
	r.held[wi] = held{k, time.Now()}
	r.issued[k]++
	return r.issued[k] - 1, true
}

// record settles worker wi's try of chunk k — finished with tally t, or
// failed with err — unless the worker stopped mid-chunk or another try
// settled k first. A failed chunk is retried after the returned backoff
// until it has failed MaxAttempts times, then poisoned.
func (r *chunkRun) record(wi, k int, t tally, err error, stopped bool) (backoff time.Duration, retry bool) {
	s := r.sup
	s.mu.Lock()
	defer s.mu.Unlock()
	r.held[wi] = held{}
	if stopped || r.done[k] {
		return 0, false
	}
	if err != nil {
		if r.fails[k]++; r.fails[k] < s.cfg.MaxAttempts {
			s.res.Retries++
			r.obs.Counter("mackey.supervisor.retries").Add(1)
			return runctl.Backoff(r.fails[k]-1, s.cfg.BackoffBase, s.cfg.BackoffCap), true
		}
		r.poisoned++
		r.obs.Counter("mackey.supervisor.poisoned").Add(1)
		s.res.Poisoned = append(s.res.Poisoned, ChunkFault{Run: r.section, Chunk: k, Attempts: r.fails[k], Err: err.Error()})
		s.ck.MarkPoisoned(r.section, k, r.fails[k], err.Error())
	} else {
		r.kept.add(t)
		s.res.ChunksDone++
		s.ck.MarkDone(r.section, k, t)
	}
	r.done[k] = true
	r.settled++
	return 0, false
}

// stalled is the watchdog, run by workers the cursor has nothing left
// for: each tick it polls ctl — mining workers poll it only inside
// chunks — and hands back, once per chunk, a chunk whose try has been
// held past StallTimeout, to try in duplicate (first completion wins:
// chunk results are deterministic). It reports false once every chunk
// is settled or the run stops, and at once without a StallTimeout.
func (r *chunkRun) stalled() (int, bool) {
	s := r.sup
	st := s.cfg.StallTimeout
	for st > 0 && !r.ctl.Checkpoint(0, 0) {
		s.mu.Lock()
		if r.settled == r.pending {
			s.mu.Unlock()
			break
		}
		now := time.Now()
		for _, h := range r.held {
			if !h.since.IsZero() && now.Sub(h.since) > st && !r.done[h.chunk] && !r.requeued[h.chunk] {
				r.requeued[h.chunk] = true
				s.res.Requeues++
				r.obs.Counter("mackey.supervisor.requeues").Add(1)
				s.mu.Unlock()
				return h.chunk, true
			}
		}
		s.mu.Unlock()
		time.Sleep(min(25*time.Millisecond, st/4))
	}
	return 0, false
}

// finish ends a supervised run once its workers have exited and writes
// the checkpoint. The run is truncated when a stop left chunks unsettled
// or a chunk is poisoned; a truncated run's failed final write is its
// error, as the snapshot a resume needs is missing or stale.
func (r *chunkRun) finish() (truncated bool, reason runctl.Reason, err error) {
	ckErr := r.sup.ck.Flush()
	switch {
	case r.settled < r.pending:
		truncated, reason = true, r.ctl.Reason()
	case r.poisoned > 0:
		truncated, reason = true, runctl.Failed
	}
	if truncated && ckErr != nil {
		err = fmt.Errorf("mackey: writing checkpoint: %w", ckErr)
	}
	return truncated, reason, err
}
