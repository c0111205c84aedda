// Package runctl provides the shared cancellation and resource-budget
// machinery of the mining engine. Temporal motif search trees are
// heavy-tailed (paper §II, Fig 2): a single pathological (graph, motif, δ)
// triple can expand combinatorially many tree nodes, so every long-running
// entry point — the Mackey miners, the task-queue runner, the cycle-level
// simulators, the PRESTO sampler — accepts a Controller and polls it
// cooperatively.
//
// The design goal is a hot path that costs (almost) nothing: workers keep
// a private expansion counter and only touch the shared state every
// CheckInterval tree expansions, so the sequential miner's inner loop pays
// one predictable local branch per node. Cancellation latency is bounded
// by the time one worker takes to expand CheckInterval nodes —
// microseconds in practice — plus the (fast, check-on-entry) unwind of the
// recursion.
package runctl

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mint/internal/faultinject"
)

// CheckInterval is the number of search-tree node expansions between two
// polls of the shared stop flag. It amortizes the cost of the atomic load
// and the context poll; 4096 keeps the sequential hot-path overhead well
// under the 2% regression budget while bounding cancellation latency to a
// few microseconds of work per worker.
const CheckInterval = 4096

// Budget bounds the resources one mining run may consume. The zero value
// means "unlimited" for every dimension; a run with an all-zero Budget and
// a background context behaves exactly like the historical blocking API.
type Budget struct {
	// Deadline is an absolute wall-clock cutoff; the zero time means no
	// deadline. It composes with (and is checked alongside) any deadline
	// already carried by the run's context.
	Deadline time.Time

	// MaxMatches stops the run once at least this many matches have been
	// found; 0 means unlimited. The final count may overshoot slightly in
	// parallel runs (each worker detects the limit at its next match).
	// A match budget makes the miners visit every match, so the check
	// stays per match.
	MaxMatches int64

	// MaxNodes stops the run once at least this many search-tree nodes
	// have been expanded across all workers; 0 means unlimited. On the
	// sequential path the truncation point is deterministic: the same
	// budget always stops at the same expansion and yields the same
	// partial count. Like a deadline or a cancel, the stop is seen at a
	// checkpoint, and a counting run charges a trie leaf's whole scan at
	// once, so it lands after the current leaf scan rather than after
	// the current match.
	MaxNodes int64
}

// Unlimited reports whether the budget imposes no bound at all.
func (b Budget) Unlimited() bool {
	return b.Deadline.IsZero() && b.MaxMatches == 0 && b.MaxNodes == 0
}

// Reason says why a run stopped early.
type Reason int32

const (
	// NotStopped is the zero Reason: the run completed normally.
	NotStopped Reason = iota
	// Canceled: the run's context was canceled.
	Canceled
	// DeadlineExceeded: the Budget.Deadline or context deadline passed.
	DeadlineExceeded
	// MatchBudget: Budget.MaxMatches was reached.
	MatchBudget
	// NodeBudget: Budget.MaxNodes was reached.
	NodeBudget
	// Failed: a worker failed (panicked) and the run was aborted.
	Failed
	// FaultInjected: an injected chaos fault (error or queue drop) stopped
	// the run. Distinct from Failed so chaos-test truncations are
	// attributable in reports; the soundness contract is the same — the
	// partial counts are exact lower bounds.
	FaultInjected
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case NotStopped:
		return "not stopped"
	case Canceled:
		return "canceled"
	case DeadlineExceeded:
		return "deadline exceeded"
	case MatchBudget:
		return "match budget exhausted"
	case NodeBudget:
		return "node budget exhausted"
	case Failed:
		return "worker failed"
	case FaultInjected:
		return "fault injected"
	default:
		return fmt.Sprintf("Reason(%d)", int32(r))
	}
}

// Controller is the shared stop/budget state of one mining run. One
// Controller is created per run and handed to every worker; workers poll
// it at amortized intervals via Checkpoint (or Stopped for loops that do
// their own accounting). A nil *Controller is legal everywhere and means
// "never stop" — the historical behavior.
type Controller struct {
	ctx    context.Context
	budget Budget

	stop     atomic.Bool
	reason   atomic.Int32
	nodes    atomic.Int64
	matches  atomic.Int64
	stopAtNS atomic.Int64 // wall clock (UnixNano) of the winning Stop

	// fault is the run's chaos plan (nil outside chaos runs). It rides on
	// the Controller because every long-running engine already threads one
	// — the injection hooks need no new plumbing and stay build-tag-free.
	fault *faultinject.Plan

	// traceID is the distributed trace id of the request this run serves
	// ("" outside traced requests). It rides on the Controller for the
	// same reason the fault plan does: every engine already threads one,
	// so engine-side span emission needs no new plumbing.
	traceID string
}

// New builds a Controller for one run. ctx may be nil (treated as
// context.Background()). A Budget.Deadline, if set, is folded into the
// deadline check alongside the context's own deadline.
func New(ctx context.Context, b Budget) *Controller {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Controller{ctx: ctx, budget: b}
}

// Stopped reports whether the run should abort. It is a single atomic
// load; safe (and cheap) to call from any worker at any frequency.
func (c *Controller) Stopped() bool {
	return c != nil && c.stop.Load()
}

// Reason returns why the run stopped, or NotStopped.
func (c *Controller) Reason() Reason {
	if c == nil {
		return NotStopped
	}
	return Reason(c.reason.Load())
}

// Stop requests that every worker abort, recording the first reason. Safe
// for concurrent use; later reasons lose.
func (c *Controller) Stop(r Reason) {
	if c == nil {
		return
	}
	if c.reason.CompareAndSwap(int32(NotStopped), int32(r)) {
		c.stopAtNS.Store(time.Now().UnixNano())
		c.stop.Store(true)
	}
}

// StopTime returns the wall-clock instant the winning Stop fired. The
// elapsed time from here to the run's return is the cancellation
// latency the observability layer records (obs histogram
// "runctl.cancel_latency_ns").
func (c *Controller) StopTime() (time.Time, bool) {
	if c == nil {
		return time.Time{}, false
	}
	ns := c.stopAtNS.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// SetFaultPlan installs a chaos fault plan on the controller. Call before
// handing the controller to workers; the plan itself is concurrency-safe.
func (c *Controller) SetFaultPlan(p *faultinject.Plan) {
	if c != nil {
		c.fault = p
	}
}

// FaultPlan returns the run's chaos plan, or nil. Engines evaluate it at
// their injection sites; a nil controller or nil plan costs one branch.
func (c *Controller) FaultPlan() *faultinject.Plan {
	if c == nil {
		return nil
	}
	return c.fault
}

// SetTraceID tags the run with a distributed trace id. Call before
// handing the controller to workers (not concurrency-safe afterwards,
// like SetFaultPlan).
func (c *Controller) SetTraceID(id string) {
	if c != nil {
		c.traceID = id
	}
}

// TraceID returns the run's distributed trace id ("" when untraced or
// on a nil controller). Engines tag emitted spans with it so
// cross-process trace assembly can attribute them to the request.
func (c *Controller) TraceID() string {
	if c == nil {
		return ""
	}
	return c.traceID
}

// Budget returns the budget the controller was created with.
func (c *Controller) Budget() Budget {
	if c == nil {
		return Budget{}
	}
	return c.budget
}

// Checkpoint is the amortized cooperative check every worker calls once
// per CheckInterval tree expansions (and on each match when a match budget
// is set). nodes and matches are the worker's progress *since its last
// call*; they are flushed into the run totals, then the stop conditions
// are evaluated in a fixed order (existing stop, cancellation/deadline,
// match budget, node budget) so sequential runs truncate deterministically.
// It reports whether the worker should abort.
func (c *Controller) Checkpoint(nodes, matches int64) bool {
	if c == nil {
		return false
	}
	totalNodes := c.nodes.Add(nodes)
	totalMatches := c.matches.Add(matches)
	if c.stop.Load() {
		return true
	}
	if err := c.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			c.Stop(DeadlineExceeded)
		} else {
			c.Stop(Canceled)
		}
		return true
	}
	if !c.budget.Deadline.IsZero() && !time.Now().Before(c.budget.Deadline) {
		c.Stop(DeadlineExceeded)
		return true
	}
	if c.budget.MaxMatches > 0 && totalMatches >= c.budget.MaxMatches {
		c.Stop(MatchBudget)
		return true
	}
	if c.budget.MaxNodes > 0 && totalNodes >= c.budget.MaxNodes {
		c.Stop(NodeBudget)
		return true
	}
	return false
}

// MatchBudgeted reports whether a match budget is in force — workers use
// it to decide whether to checkpoint eagerly on each match rather than
// only every CheckInterval expansions.
func (c *Controller) MatchBudgeted() bool {
	return c != nil && c.budget.MaxMatches > 0
}

// Nodes returns the total search-tree node expansions flushed so far.
func (c *Controller) Nodes() int64 {
	if c == nil {
		return 0
	}
	return c.nodes.Load()
}

// Matches returns the total matches flushed so far.
func (c *Controller) Matches() int64 {
	if c == nil {
		return 0
	}
	return c.matches.Load()
}

// PanicError is the error a recovered worker panic is converted into. The
// run aborts (Reason Failed) but the process survives and partial results
// remain available.
type PanicError struct {
	// Worker is the index of the worker goroutine that panicked.
	Worker int
	// Root is the root edge ID of the search tree being expanded, or -1
	// when the panic happened outside any tree.
	Root int64
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runctl: worker %d panicked on root edge %d: %v", e.Worker, e.Root, e.Value)
}
