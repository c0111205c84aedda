package mint

// Multi-motif co-mining (Mayura-style): counting a motif SET in one
// engine pass instead of one pass per motif. Same-δ motifs whose
// canonical edge sequences share a prefix — the Paranjape M1–M4 family
// all starts with (0→1) — are mined by a single search-tree traversal
// with per-motif bookkeeping forked only where the sequences diverge,
// recovering the redundant prefix work a per-motif sweep repeats. See
// internal/comine and DESIGN.md §13.

import (
	"context"

	"mint/internal/comine"
	"mint/internal/obs"
	"mint/internal/runctl"
)

// BatchResult is the outcome of a co-mined multi-motif run: per-motif
// counts (indexed like the input motif slice), merged engine stats,
// and the co-mining shape (groups, fork points, shared expansions).
type BatchResult = comine.Result

// BatchMotifResult is one motif's row in a BatchResult. Counts are
// bit-identical to an independent single-motif run; a truncated row is
// an exact lower bound, loudly flagged with its StopReason.
type BatchMotifResult = comine.MotifResult

// BatchOptions configures CountManyOpts beyond the plain
// (workers, budget) pair of CountManyCtx.
type BatchOptions struct {
	// Workers sets the per-group parallelism (< 1 means GOMAXPROCS).
	Workers int
	// Obs, when non-nil, receives the co-mining counters (comine.groups,
	// comine.fork_points, the shared-prefix hit-ratio gauge) plus the
	// executor's folded mackey.* stats.
	Obs *ObsRegistry
	// Chaos, when non-nil, installs a fault-injection plan on the run's
	// controller; every group rolls at the mining executor's chunk site
	// "mackey.chunk". An injected fault truncates the run loudly with
	// StopFaultInjected.
	Chaos *ChaosPlan
	// Roots restricts the batch to instances rooted in this timestamp
	// window (nil = whole graph); batches over disjoint adjacent windows
	// sum exactly, the coordinator fan-out property.
	Roots *RootWindow
	// Trace, when non-nil, receives one span per co-mined group.
	Trace *obs.Tracer
	// TraceID tags emitted spans with the request's distributed trace id.
	TraceID string
}

// CountManyCtx counts every motif of the set in one co-mined run under
// ONE shared budget: same-δ motifs are grouped and mined by a single
// traversal per group, so b bounds the batch as a whole — not each
// motif separately. Per-motif counts are bit-identical to independent
// CountParallelCtx runs; a truncated batch marks every motif of the
// stopped (and not-yet-run) groups Truncated with the reason, counts
// staying exact lower bounds. A worker panic converts to a returned
// *PanicError alongside the partial result.
func CountManyCtx(ctx context.Context, g *Graph, motifs []*Motif, workers int, b Budget) (BatchResult, error) {
	return CountManyOpts(ctx, g, motifs, BatchOptions{Workers: workers}, b)
}

// CountManyOpts is CountManyCtx with the full option set (observability,
// chaos injection, root windowing, tracing).
func CountManyOpts(ctx context.Context, g *Graph, motifs []*Motif, opts BatchOptions, b Budget) (BatchResult, error) {
	plan, err := comine.PlanSet(motifs)
	if err != nil {
		return BatchResult{}, err
	}
	ctl := runctl.New(ctx, b)
	ctl.SetFaultPlan(opts.Chaos)
	ctl.SetTraceID(opts.TraceID)
	return comine.MineCtx(ctx, g, plan, comine.Options{
		Workers: opts.Workers,
		Ctl:     ctl,
		Obs:     opts.Obs,
		Trace:   opts.Trace,
		Roots:   rootRangeFor(g, opts.Roots),
	}, b)
}
