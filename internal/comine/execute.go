package comine

import (
	"context"
	"time"

	"mint/internal/mackey"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Options configures a co-mining run. Each group is mined by
// mackey.MineTrieCtx — the single-motif miners' own worker, chunk
// scheduler, window-cached candidate scans, chaos site (mackey.chunk)
// and cooperative runctl budget/cancellation contract.
type Options struct {
	// Workers sets the parallelism (< 1 means GOMAXPROCS).
	Workers int
	// Ctl carries the run's shared cancellation/budget state; nil means
	// uncancellable and unbounded. ONE controller governs the whole
	// plan — all groups, all motifs — so a MaxNodes or Deadline budget
	// bounds the fingerprint as a whole, not each motif separately.
	Ctl *runctl.Controller
	// Obs, when non-nil, receives the run's counters (comine.groups,
	// comine.fork_points, comine.shared_expansions, the shared-prefix
	// hit-ratio gauge) plus each group's mackey.* worker folds.
	Obs *obs.Registry
	// Trace, when non-nil, receives one coarse span per group.
	Trace *obs.Tracer
	// Roots restricts every group to root edges in [Roots.Lo, Roots.Hi)
	// — the same engine-level hook the δ-aware shard partition uses, so
	// co-mined counts over disjoint root ranges sum exactly.
	Roots *mackey.RootRange
}

// MotifResult is one input motif's outcome within a co-mined run.
type MotifResult struct {
	// Motif is the input motif this row reports on.
	Motif *temporal.Motif
	// Matches is the exact (possibly partial) instance count.
	Matches int64
	// Truncated marks a count cut short — by the shared budget, the
	// context, or a fault. A truncated co-mined group marks EVERY member
	// truncated: the group stops as one traversal, so no member's count
	// can be certified complete. Counts remain exact lower bounds.
	Truncated bool
	// StopReason says why a truncated row stopped.
	StopReason runctl.Reason
}

// Result is the outcome of a co-mined run.
type Result struct {
	// PerMotif is indexed exactly like the PlanSet input.
	PerMotif []MotifResult
	// Stats merges the mining instrumentation across groups and workers.
	// Shared expansions are charged once (that is the point), so Stats
	// is NOT comparable field-by-field with a per-motif sweep; Matches
	// totals are.
	Stats mackey.Stats
	// Groups / ForkPoints echo the plan shape.
	Groups     int
	ForkPoints int
	// SharedExpansions counts trie expansions at nodes with Passing > 1
	// — each one replaced Passing single-motif expansions.
	// SharedExpansions / Stats.NodesExpanded is the runtime
	// shared-prefix hit ratio.
	SharedExpansions int64
	// Truncated / StopReason: whether the run as a whole stopped early.
	Truncated  bool
	StopReason runctl.Reason
}

// MineCtx co-mines every motif of plan against g in one traversal per
// group, under one shared controller. Groups run sequentially (they
// share the budget; each group parallelizes internally). After a stop,
// the remaining groups return immediately with every member loudly
// marked Truncated. A worker panic converts to a *runctl.PanicError
// alongside the partial result.
func MineCtx(ctx context.Context, g *temporal.Graph, plan *Plan, opts Options, b runctl.Budget) (Result, error) {
	if opts.Ctl == nil {
		opts.Ctl = runctl.New(ctx, b)
	}
	ctl := opts.Ctl
	res := Result{
		PerMotif:   make([]MotifResult, len(plan.Motifs)),
		Groups:     len(plan.Groups),
		ForkPoints: plan.ForkPoints(),
	}
	for i, m := range plan.Motifs {
		res.PerMotif[i].Motif = m
	}
	var firstErr error
	for gi, grp := range plan.Groups {
		if ctl.Stopped() {
			markTruncated(res.PerMotif, grp, ctl.Reason())
			continue
		}
		var start time.Time
		if opts.Trace != nil {
			start = time.Now()
		}
		r, err := mackey.MineTrieCtx(ctx, g, &grp.Trie, mackey.Options{
			Workers: opts.Workers, Ctl: ctl, Obs: opts.Obs, Roots: opts.Roots,
		}, b)
		for _, mem := range grp.Members {
			res.PerMotif[mem.Index].Matches = r.Counts[mem.Index]
		}
		if r.Truncated {
			markTruncated(res.PerMotif, grp, r.StopReason)
		}
		res.Stats.Add(r.Stats)
		res.SharedExpansions += r.Shared
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if opts.Trace != nil {
			opts.Trace.EmitTagged("comine.group", ctl.TraceID(), int32(gi), start, time.Since(start))
		}
	}
	if ctl.Stopped() {
		res.Truncated = true
		res.StopReason = ctl.Reason()
	}
	publish(opts.Obs, plan, &res, ctl)
	return res, firstErr
}

// markTruncated loudly marks every member of grp truncated. Exact
// counts accumulated before the stop stay in place as lower bounds.
func markTruncated(perMotif []MotifResult, grp *Group, reason runctl.Reason) {
	for _, mem := range grp.Members {
		perMotif[mem.Index].Truncated = true
		perMotif[mem.Index].StopReason = reason
	}
}

// publish folds the run's counters into the registry: the plan shape,
// the shared-work tally, the hit-ratio gauge (ppm), and the merged
// mining stats under comine.* shard 0.
func publish(reg *obs.Registry, plan *Plan, res *Result, ctl *runctl.Controller) {
	if reg == nil {
		return
	}
	reg.Counter("comine.groups").Add(int64(len(plan.Groups)))
	reg.Counter("comine.fork_points").Add(int64(res.ForkPoints))
	reg.Counter("comine.shared_expansions").Add(res.SharedExpansions)
	reg.Counter("comine.expansions").Add(res.Stats.NodesExpanded)
	reg.Counter("comine.matches").Add(res.Stats.Matches)
	if res.Stats.NodesExpanded > 0 {
		reg.Gauge("comine.shared_ratio_ppm").Set(res.SharedExpansions * 1_000_000 / res.Stats.NodesExpanded)
	}
	if res.Truncated {
		reg.Counter("comine.truncated_runs").Add(1)
	}
	reg.Gauge("runctl.nodes").Set(ctl.Nodes())
	reg.Gauge("runctl.matches").Set(ctl.Matches())
}
