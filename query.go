package mint

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mint/internal/comine"
	"mint/internal/mackey"
	"mint/internal/obs"
	"mint/internal/presto"
	"mint/internal/runctl"
)

// Query describes one mining run. Exactly one of Motif and Motifs is
// set; every other field is optional, and the zero value of each means
// "unrestricted" or "off".
type Query struct {
	// Motif is the single motif to mine.
	Motif *Motif
	// Motifs switches the run to a co-mined motif set: same-δ motifs are
	// grouped and mined by one traversal per group, and Budget bounds the
	// set as a whole, not each motif separately.
	Motifs []*Motif
	// Roots restricts the run to instances rooted in this timestamp
	// window (nil = whole graph); runs over disjoint adjacent windows sum
	// exactly.
	Roots *RootWindow
	// Visit, when non-nil, streams every match of Motif as its graph-edge
	// index sequence, from one worker in the deterministic chronological
	// search order, so Budget.MaxMatches = n streams exactly the first n
	// matches. The slice is reused across calls; copy it to retain.
	Visit func(edges []int32)
	// Workers is the run's parallelism; < 1 means GOMAXPROCS.
	Workers int
	// Budget bounds the exact run: a Deadline, MaxMatches and MaxNodes.
	// Without Visit or MaxMatches the miner counts each trie leaf's
	// matches in one step, so a deadline, cancel or MaxNodes stop lands
	// after the current leaf scan rather than after the current match.
	// Visit and MaxMatches keep the per-match path, and a MaxMatches stop
	// is exact. MaxMatches and MaxNodes also keep star motifs off the
	// closed-form kernels (see Run), which count neither matches one by
	// one nor search-tree nodes; a kernel stops for a deadline or cancel
	// between centre nodes.
	Budget Budget
	// Fallback, when non-nil, degrades a truncated exact run to the PRESTO
	// estimate under the remaining context (the zero config means
	// DefaultApproxConfig()). The exact stage then stops at three quarters
	// of the wall time left before the earlier of Budget.Deadline and the
	// context's deadline, leaving the rest to the estimator. A
	// root-windowed run never falls back: the sampler estimates the whole
	// graph, not a root slice, so its answer stays the exact partial lower
	// bound.
	Fallback *ApproxConfig
	// Supervisor, when non-nil, runs the fault-tolerant supervised miner:
	// failed chunks are retried, then quarantined into the result's
	// Poisoned ledger, and with CheckpointPath set progress is
	// checkpointed crash-safely (Resume continues from it).
	Supervisor *SupervisorConfig
	// Chaos, when non-nil, installs a fault-injection plan on the run's
	// controller; an injected fault truncates the run loudly with
	// StopFaultInjected (the estimator stage has no injection sites).
	Chaos *ChaosPlan
	// Obs, when non-nil, receives the engines' counters and, with
	// Fallback set, the ladder's outcome (fallback.exact, fallback.presto,
	// fallback.partial, fallback.error).
	Obs *ObsRegistry
	// Trace, when non-nil, receives the engines' spans; TraceID tags them
	// with the request's distributed trace id.
	Trace   *obs.Tracer
	TraceID string
}

// ErrInvalidQuery marks a Query whose fields do not combine into a run.
var ErrInvalidQuery = errors.New("mint: invalid query")

// Validate reports a Query that Run would reject: no motif, both Motif
// and Motifs, or a mode that does not apply to the query's shape.
func (q Query) Validate() error {
	single := q.Motif != nil
	set := len(q.Motifs) > 0
	var why string
	switch {
	case single == set:
		why = "set exactly one of Motif and Motifs"
	case set && q.Visit != nil:
		why = "a motif set cannot be enumerated"
	case set && q.Fallback != nil:
		why = "a motif set has no fallback estimator"
	case q.Supervisor != nil && set:
		why = "supervised runs take a single motif"
	case q.Supervisor != nil && q.Roots != nil:
		why = "supervised runs take no root window"
	case q.Supervisor != nil && (q.Visit != nil || q.Fallback != nil):
		why = "supervised runs neither enumerate nor fall back"
	case q.Visit != nil && q.Fallback != nil:
		why = "an enumeration has no fallback estimator"
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrInvalidQuery, why)
}

// Engines a Result can report in its Engine field.
const (
	// EngineExact: the exact run completed within budget.
	EngineExact = "exact"
	// EnginePresto: the PRESTO sampling estimator produced the answer.
	EnginePresto = "presto"
	// EnginePartial: the run was cut short and Count is the exact
	// partial lower bound.
	EnginePartial = "partial"
)

// Result is the outcome of a Run. The embedded MineResult is the exact
// run's: Matches (summed over a set's rows), Stats, and the truncation
// contract — when Truncated, Matches is an exact lower bound and
// StopReason says why.
type Result struct {
	MineResult
	// Engine names the producer of Count: EngineExact, EnginePresto or
	// EnginePartial.
	Engine string
	// Count is the best available answer: the exact count, the PRESTO
	// estimate (never below the exact partial count), or the exact
	// partial lower bound.
	Count float64
	// Approx is the estimator stage's outcome; zero unless the fallback
	// ladder ran it.
	Approx ApproxResult
	// Batch is a motif set's outcome: per-motif rows indexed like
	// Query.Motifs, and the co-mining shape. Zero for a single motif.
	Batch BatchResult
	// Supervised is the supervisor's fault ledger and chunk progress;
	// zero unless Query.Supervisor was set.
	Supervised SupervisedMineResult
	// Kernels names the motifs routed to a closed-form star kernel
	// instead of the trie executor, in query order; nil when none was.
	Kernels []string
}

// Run mines q over g. A star motif (k ≥ 2 edges out of, or into, one
// centre, like M4) is counted by a closed-form kernel in O(edges) when
// the query observes nothing the kernel cannot reproduce: no Visit,
// Supervisor, Budget.MaxMatches or Budget.MaxNodes (mackey.KernelFor,
// the one routing rule; Result.Kernels names the motifs it routed).
// Everything else runs on the one trie executor: the sequential worker
// when enumerating, the chunk scheduler for a single motif, the
// co-miner for a set — whose routed stars leave its trie — or the
// supervisor. A stopped run is not an error: the result is Truncated
// with exact partial counts. The error reports an invalid query
// (ErrInvalidQuery), a worker panic (*PanicError, alongside the
// partial result), an unreadable or mismatched checkpoint, or an
// estimator failure.
func Run(ctx context.Context, g *Graph, q Query) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	if q.Fallback != nil {
		q.Budget.Deadline = exactDeadline(ctx, q.Budget.Deadline)
	}
	ctl := runctl.New(ctx, q.Budget)
	ctl.SetFaultPlan(q.Chaos)
	ctl.SetTraceID(q.TraceID)
	opts := mackey.Options{Workers: q.Workers, Ctl: ctl, Obs: q.Obs, Trace: q.Trace, Roots: rootRangeFor(g, q.Roots)}
	var res Result
	var err error
	switch {
	case len(q.Motifs) > 0:
		var plan *comine.Plan
		if plan, err = comine.PlanSet(q.Motifs); err != nil {
			return res, err
		}
		res.Batch, err = comine.MineCtx(ctx, g, plan, comine.Options{
			Workers: q.Workers, Ctl: ctl, Obs: q.Obs, Trace: q.Trace, Roots: opts.Roots,
		}, q.Budget)
		res.Stats, res.Truncated, res.StopReason = res.Batch.Stats, res.Batch.Truncated, res.Batch.StopReason
		for _, pm := range res.Batch.PerMotif {
			res.Matches += pm.Matches
			if pm.Kernel {
				res.Kernels = append(res.Kernels, pm.Motif.Name)
			}
		}
	case q.Visit != nil:
		opts.Probe = enumProbe{q.Visit}
		res.MineResult = mackey.MineCtx(ctx, g, q.Motif, opts, q.Budget)
	case q.Supervisor != nil:
		res.Supervised, err = mackey.MineParallelSupervised(ctx, g, q.Motif, opts, q.Budget, *q.Supervisor)
		res.MineResult = res.Supervised.Result
	default:
		if star, ok := mackey.KernelFor(g, q.Motif, opts, q.Budget); ok {
			res.MineResult, err = mackey.MineStarCtx(ctx, g, star, q.Motif.Delta, opts, q.Budget)
			res.Kernels = []string{q.Motif.Name}
		} else {
			res.MineResult, err = mackey.MineParallelCtx(ctx, g, q.Motif, opts, q.Budget)
		}
	}
	res.Count = float64(res.Matches)
	res.Engine = EngineExact
	if res.Truncated {
		res.Engine = EnginePartial
	}
	if q.Fallback != nil {
		return fallback(ctx, g, q, res, err)
	}
	return res, err
}

// exactDeadline is the exact stage's deadline on the fallback ladder: it
// leaves a quarter of the wall time before the run's deadline — the
// earlier of the budget's and the context's — to the estimator.
func exactDeadline(ctx context.Context, dl time.Time) time.Time {
	if cdl, ok := ctx.Deadline(); ok && (dl.IsZero() || cdl.Before(dl)) {
		dl = cdl
	}
	if dl.IsZero() {
		return dl
	}
	now := time.Now()
	return now.Add(dl.Sub(now) * 3 / 4)
}

type enumProbe struct{ visit func([]int32) }

func (p enumProbe) NeighborhoodAccess(int32, bool, int, int, int32) {}
func (p enumProbe) Match(edges []int32)                             { p.visit(edges) }

// fallback is the ladder's second rung: a truncated, unwindowed exact
// run degrades to the PRESTO estimate, turning a hard timeout into a
// flagged approximate answer. The exact partial count stays in Matches
// as a lower bound.
func fallback(ctx context.Context, g *Graph, q Query, res Result, err error) (Result, error) {
	outcome := func(name string) { q.Obs.Counter("fallback." + name).Add(1) }
	switch {
	case err != nil:
		outcome("error")
		return res, err
	case !res.Truncated:
		outcome("exact")
		return res, nil
	case q.Roots != nil:
		outcome("partial")
		return res, nil
	}
	cfg := *q.Fallback
	if cfg.Windows == 0 {
		cfg = DefaultApproxConfig()
	}
	if res.Approx, err = presto.EstimateCtx(ctx, g, q.Motif, cfg); err != nil {
		outcome("error")
		return res, err
	}
	if res.Approx.WindowsRun == 0 {
		// The context died before a single window completed: the partial
		// exact count is the only usable answer.
		outcome("partial")
		return res, nil
	}
	outcome("presto")
	res.Engine = EnginePresto
	// On heavy-tailed graphs a small window sample can estimate below the
	// proven lower bound; never report an answer known to be too low.
	res.Count = max(res.Approx.Estimate, float64(res.Matches))
	return res, nil
}
