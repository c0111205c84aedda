// Package mint is a from-scratch reproduction of "Mint: An Accelerator
// For Mining Temporal Motifs" (Talati et al., MICRO 2022): exact
// δ-temporal motif mining on temporal graphs, the paper's task-centric
// programming model, its software and GPU baselines, and a cycle-level
// simulator of the Mint hardware accelerator.
//
// The root package is the public API. It covers four layers:
//
//   - Data: temporal graphs (NewGraph, LoadSNAP) and motifs (ParseMotif,
//     M1–M4), plus the paper's six evaluation datasets as deterministic
//     synthetic substitutes (Dataset, Datasets).
//
//   - Exact mining: Run mines one Query — a motif or a co-mined motif
//     set, with its root window, enumeration, workers, budget, fallback
//     ladder, supervision, chaos and instrumentation — on the Mackey et
//     al. chronological edge-driven algorithm. Count, CountParallel,
//     CountManyCtx, Enumerate and Profile are one-line shims over it;
//     CountTaskQueue runs the asynchronous task-queue execution of the
//     paper's programming model.
//
//   - Approximate mining: EstimateApprox runs a PRESTO-style sampling
//     estimator that uses the exact miner as a subroutine.
//
//   - Hardware: Simulate runs the cycle-level Mint accelerator model and
//     reports runtime, speedups, memory traffic, bandwidth utilization and
//     cache behavior; AreaPower reports the 28 nm area/power roll-up.
//
// # Cancellation and budgets
//
// Temporal motif search trees are heavy-tailed (paper §II, Fig 2), so
// every mining run takes a context.Context and a Budget (wall-clock
// Deadline, MaxMatches, MaxNodes; the zero Budget is unlimited): Run
// through Query.Budget, and EstimateApproxCtx, SimulateCtx and
// SimulateGPUCtx directly. Cancellation is cooperative: workers poll a
// shared atomic flag every few thousand search-tree expansions, so the
// unbounded hot path is unaffected and cancellation latency is
// microseconds of work per worker.
//
// A stopped run is not an error: it returns its result with
// Truncated=true, a StopReason, and exact partial counts — a lower bound
// on the full answer. On one worker a fixed MaxNodes budget
// truncates deterministically (same budget, same partial count, every
// run). A panicking worker in the parallel miners converts into a
// returned *PanicError carrying the offending root edge instead of
// killing the process. A Query with a Fallback composes the layers: it
// mines exactly within its Budget and, when cut short, degrades to the
// PRESTO sampling estimate, turning a hard timeout into a usable
// (flagged) approximate answer.
//
// # Observability
//
// internal/obs provides a zero-dependency metrics registry (sharded
// counters, gauges, log2-bucket histograms), a per-request span
// recorder that the miners record into, and a machine-readable
// RunReport, threaded through the miners, the task runtime, and the
// simulator. Instrumentation costs nothing when
// detached and <3% on the sequential hot path when attached (engines
// fold their private stats into the registry once per worker per run).
// cmd/mine and cmd/experiments expose it as expvar JSON + pprof
// (-obs.listen), RunReport JSON (-report), and Chrome trace_event dumps
// (-trace); ProfileOf surfaces per-motif truncation in MotifCount.
//
// Everything under internal/ is the implementation: one package per
// subsystem (see DESIGN.md for the inventory and the per-experiment map).
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/experiments.
package mint
