package mint

// Cancellation, budgets, and graceful degradation for the public API.
//
// Temporal motif search trees are heavy-tailed: a pathological (graph,
// motif, δ) triple can expand combinatorially many nodes (paper §II,
// Fig 2), so every mining run takes a context.Context and a Budget
// (through Query, or the *Ctx one-liners over Run). Cancellation is
// cooperative and cheap — workers poll a shared atomic flag every few
// thousand tree expansions — and an aborted run returns its exact
// partial results (Truncated=true) instead of discarding the work. A
// Query with a Fallback goes one step further: when the exact miner
// exceeds its budget it degrades to the PRESTO sampling estimate,
// turning a hard timeout into a usable answer.

import (
	"context"

	"mint/internal/faultinject"
	"mint/internal/gpumodel"
	"mint/internal/mackey"
	hw "mint/internal/mint"
	"mint/internal/obs"
	"mint/internal/presto"
	"mint/internal/runctl"
)

// ObsRegistry is the observability registry engines report into; see
// internal/obs. Serving layers pass one through Query.Obs (and attach
// it to their HTTP debug endpoints) to attribute traffic to engines.
type ObsRegistry = obs.Registry

// NewObsRegistry creates a named observability registry.
func NewObsRegistry(name string) *ObsRegistry { return obs.New(name) }

// Budget bounds the resources a mining run may consume: a wall-clock
// Deadline, a MaxMatches cap, and a MaxNodes cap on expanded search-tree
// nodes. The zero Budget is unlimited. A counting run tallies each leaf
// scan's matches in one step, so a deadline, cancel or MaxNodes stop
// lands after the current leaf scan, not after the current match;
// MaxMatches stays exact per match.
type Budget = runctl.Budget

// StopReason says why a truncated run stopped.
type StopReason = runctl.Reason

// Stop reasons reported in results with Truncated=true.
const (
	// NotStopped: the run completed normally.
	NotStopped = runctl.NotStopped
	// StopCanceled: the context was canceled.
	StopCanceled = runctl.Canceled
	// StopDeadline: the Budget.Deadline or context deadline passed.
	StopDeadline = runctl.DeadlineExceeded
	// StopMatchBudget: Budget.MaxMatches was reached.
	StopMatchBudget = runctl.MatchBudget
	// StopNodeBudget: Budget.MaxNodes was reached.
	StopNodeBudget = runctl.NodeBudget
	// StopFailed: a worker failed and the run was aborted.
	StopFailed = runctl.Failed
	// StopFaultInjected: an injected chaos fault stopped the run.
	StopFaultInjected = runctl.FaultInjected
)

// MineResult is the full outcome of an exact mining run: the match count,
// instrumentation stats, and the truncation contract — when Truncated is
// true, Matches and Stats hold the exact partial work done before the stop
// (a lower bound on the full count), and StopReason says why.
type MineResult = mackey.Result

// MineStats re-exports the miner instrumentation counters.
type MineStats = mackey.Stats

// PanicError is the error returned when a mining worker panics: the run
// aborts cleanly (no process death), partial results stay available, and
// the error carries the worker index and offending root edge ID.
type PanicError = runctl.PanicError

// ApproxResult is the full outcome of a PRESTO estimation run.
type ApproxResult = presto.Result

// GPUResult is the outcome of the GPU SIMT timing model.
type GPUResult = gpumodel.Result

// CountParallelCtx is CountParallel bounded by a context and a budget
// (workers < 1 means GOMAXPROCS). It always runs the Mackey trie
// executor, never a closed-form kernel, so it is a reference Run's
// routed answers can be checked against. A panicking worker converts
// into a returned *PanicError instead of killing the process; the
// partial result accompanies the error.
func CountParallelCtx(ctx context.Context, g *Graph, m *Motif, workers int, b Budget) (MineResult, error) {
	return mackey.MineParallelCtx(ctx, g, m, mackey.Options{Workers: workers}, b)
}

// EnumerateCtx is Enumerate bounded by a context and a budget. With
// Budget.MaxMatches = n it streams exactly the first n matches (in the
// deterministic chronological search order) and stops. The visit slice is
// reused across calls; copy it to retain.
func EnumerateCtx(ctx context.Context, g *Graph, m *Motif, b Budget, visit func(edges []int32)) MineResult {
	res, _ := Run(ctx, g, Query{Motif: m, Budget: b, Visit: visit}) // a single-motif enumeration is always a valid query
	return res.MineResult
}

// RootWindow restricts a mining run to motif instances rooted in the
// half-open timestamp window [Start, End): the instance's first
// (earliest) motif edge must have Start <= time < End. Later motif
// edges are unrestricted — a window that straddles End still counts,
// as long as its root is inside — so runs over disjoint adjacent
// windows partition the instance set exactly: summing their counts
// reproduces the unrestricted count with no dedup step. This is the
// ownership rule the δ-aware shard partition is built on.
type RootWindow struct {
	Start Timestamp
	End   Timestamp
}

// rootRangeFor lifts a timestamp window onto the engine's root index
// range via binary search on the time-sorted edge list.
func rootRangeFor(g *Graph, w *RootWindow) *mackey.RootRange {
	if w == nil {
		return nil
	}
	lo, hi := g.EdgeRange(w.Start, w.End)
	return &mackey.RootRange{Lo: lo, Hi: hi}
}

// EstimateApproxCtx is EstimateApprox with cancellation: the sampler
// checks its context between (and inside) windows. A truncated run returns
// the estimate averaged over the windows completed so far — still
// unbiased, just higher-variance — with Truncated=true.
func EstimateApproxCtx(ctx context.Context, g *Graph, m *Motif, cfg ApproxConfig) (ApproxResult, error) {
	return presto.EstimateCtx(ctx, g, m, cfg)
}

// SimulateCtx is Simulate bounded by a context and a budget: the cycle
// loop polls for cancellation every few thousand simulated cycles and a
// stopped simulation returns its partial Result with Truncated=true.
func SimulateCtx(ctx context.Context, g *Graph, m *Motif, cfg SimConfig, b Budget) (SimResult, error) {
	return hw.SimulateCtx(ctx, g, m, cfg, b)
}

// SimulateGPUCtx is SimulateGPU bounded by a context and a budget; the
// warp-step loop polls for cancellation between lockstep steps.
func SimulateGPUCtx(ctx context.Context, g *Graph, m *Motif, cfg GPUConfig, b Budget) (GPUResult, error) {
	return gpumodel.RunCtx(ctx, g, m, cfg, b)
}

// SupervisorConfig configures the fault-tolerant supervised miner:
// per-chunk retry with capped exponential backoff, two-strike panic
// quarantine, a stalled-worker watchdog, and crash-safe checkpointing.
type SupervisorConfig = mackey.SupervisorOptions

// SupervisedMineResult is a MineResult plus the supervisor's fault
// ledger: poisoned chunks, retry/requeue counts, and chunk progress.
type SupervisedMineResult = mackey.SupervisedResult

// ChunkFault describes one chunk quarantined by the supervisor.
type ChunkFault = mackey.ChunkFault

// ChaosPlan is a deterministic, seedable fault-injection plan threaded
// through every mining engine for robustness testing. Build one with
// ParseChaosPlan; the same plan fires identically across runs regardless
// of goroutine scheduling.
type ChaosPlan = faultinject.Plan

// ParseChaosPlan parses a fault-plan spec of the form
// "seed=N,panic=P,delay=P,error=P,drop=P,delaydur=D,sites=PREFIX"
// (all fields optional; rates are per-site-evaluation probabilities).
func ParseChaosPlan(spec string) (*ChaosPlan, error) {
	return faultinject.Parse(spec)
}
