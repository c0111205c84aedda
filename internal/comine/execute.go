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
// and cooperative runctl budget/cancellation contract — and its routed
// star members by mackey.MineStarCtx on the same scheduler.
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
	// Kernel marks a row routed to a closed-form star kernel
	// (mackey.MineStarCtx) instead of the co-mined trie.
	Kernel bool
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
// group, under one shared controller. Star members go to closed-form
// kernels when mackey.KernelFor routes every star of their group — the
// rule Run applies to a single motif — and the group's trie is then
// Rest; otherwise the whole group walks its trie. Groups run
// sequentially (they share the budget; each group parallelizes
// internally). After a stop, the remaining groups and kernels return
// immediately with every member loudly marked Truncated. A worker panic
// converts to a *runctl.PanicError alongside the partial result.
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
	mopts := mackey.Options{Workers: opts.Workers, Ctl: ctl, Obs: opts.Obs, Roots: opts.Roots}
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
		trie, stars := &grp.Trie, grp.kernels(g, mopts, b)
		if stars != nil {
			trie = grp.Rest
		}
		if trie.Root.Passing > 0 {
			r, err := mackey.MineTrieCtx(ctx, g, trie, mopts, b)
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
		}
		for i, mem := range grp.Members {
			if !mem.Star || stars == nil {
				continue
			}
			pm := &res.PerMotif[mem.Index]
			pm.Kernel = true
			if ctl.Stopped() {
				pm.Truncated, pm.StopReason = true, ctl.Reason()
				continue
			}
			r, err := mackey.MineStarCtx(ctx, g, stars[i], grp.Delta, mopts, b)
			pm.Matches = r.Matches
			if r.Truncated {
				pm.Truncated, pm.StopReason = true, r.StopReason
			}
			res.Stats.Add(r.Stats)
			if err != nil && firstErr == nil {
				firstErr = err
			}
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

// kernels routes grp's star members: the stars indexed like Members
// when mackey.KernelFor sends every one of them to a kernel, nil when
// the group has none or one must stay on the trie (the group then walks
// its whole trie).
func (grp *Group) kernels(g *temporal.Graph, opts mackey.Options, b runctl.Budget) []mackey.Star {
	if grp.Rest == nil {
		return nil
	}
	stars := make([]mackey.Star, len(grp.Members))
	for i, mem := range grp.Members {
		if !mem.Star {
			continue
		}
		s, ok := mackey.KernelFor(g, mem.Motif, opts, b)
		if !ok {
			return nil
		}
		stars[i] = s
	}
	return stars
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
