// Package mint implements a cycle-level simulator of the Mint temporal
// motif mining accelerator (paper §V–§VI, Table II).
//
// The simulated machine contains a hardware task queue that hands out root
// tasks in chronological edge order, a target-motif register file, and an
// array of processing engines (PEs). Each PE couples a context manager, a
// context-memory instance (registers + eStack + node-mapping CAM), a
// dispatcher, and a two-phase search engine (Fig 6); PEs share a banked
// on-chip SRAM cache and a multi-channel DRAM system. The functional
// behavior of every task is delegated to internal/task — the same
// transition code the software runners execute — so simulator match counts
// are exact by construction, mirroring how the paper validates its
// simulator against an instrumented software baseline (§VII-C).
package mint

import (
	"mint/internal/cache"
	"mint/internal/dram"
	"mint/internal/obs"
	"mint/internal/runctl"
)

// Config describes a Mint instance. Latencies are in core cycles at
// ClockGHz.
type Config struct {
	// PEs is the number of processing engines — context manager + context
	// memory + dispatcher + search engine bundles (Table II: 512).
	PEs int

	// ClockGHz is the core clock (post-synthesis: 1.6 GHz).
	ClockGHz float64

	// QueueDequeueLatency is the task-queue dequeue latency (Table II: 1).
	// The queue is single-ported: one root task grant per cycle.
	QueueDequeueLatency int64

	// CtxAccessLatency is the context-memory access latency (Table II: 2).
	CtxAccessLatency int64

	// CtxUpdateLatency is the context-manager compute latency for a
	// book-keeping or backtracking update (§V-A: on-chip, single cycle).
	CtxUpdateLatency int64

	// DispatchLatency covers the dispatcher's motif-register and context
	// reads when forming a search task (Fig 6(e)).
	DispatchLatency int64

	// ComparatorsPerCycle is the phase-1 filter width: neighbor-index
	// entries examined per cycle by the search engine's comparator array
	// (§V-B: "streaming edge index cache lines using a series of
	// comparators in parallel" — one 64 B line of 16 entries per cycle).
	ComparatorsPerCycle int

	// Memoize enables search index memoization (§VI-A).
	Memoize bool

	// PrefetchDepth is the phase-1 stream window: how many neighbor-index
	// lines the search engine keeps in flight while filtering (§V-B:
	// "streaming edge index cache lines"; default 4). Values beyond the
	// window model the extra neighborhood prefetching the paper evaluated
	// and rejected (§VI-B: no win once bandwidth is the constraint, plus
	// cache pollution). Exposed for the ablation bench.
	PrefetchDepth int

	// Probe, when non-nil, receives every complete match (the matched
	// graph-edge indices in motif order; the slice is reused across
	// calls). Used by the trace-validation tests that compare the
	// simulator's functional behavior against the instrumented software
	// baseline, mirroring the paper's simulator verification (§VII-C).
	Probe func(edges []int32)

	// Obs, when non-nil, receives the simulation's counters and the
	// per-PE occupancy histogram, published once when the run retires
	// (see obs.go for the metric names). The cycle loop never touches it
	// beyond a per-PE local tally.
	Obs *obs.Registry

	// Cache is the shared on-chip cache geometry.
	Cache cache.Config

	// DRAM is the main-memory system.
	DRAM dram.Config

	// MaxCycles aborts runaway simulations; 0 means a generous default.
	MaxCycles int64
}

// DefaultConfig returns the Table II system: 512 PEs, 4 MB cache (64 × 64
// KB banks), 8-channel DDR4-3200, 1.6 GHz, with memoization enabled.
func DefaultConfig() Config {
	return Config{
		PEs:                 512,
		ClockGHz:            1.6,
		QueueDequeueLatency: 1,
		CtxAccessLatency:    2,
		CtxUpdateLatency:    1,
		DispatchLatency:     2,
		ComparatorsPerCycle: 16,
		Memoize:             true,
		PrefetchDepth:       4,
		Cache:               cache.DefaultConfig(),
		DRAM:                dram.DefaultConfig(),
		MaxCycles:           0,
	}
}

// WithCacheMB returns the config with the cache scaled to totalMB while
// keeping the bank count (used by the Fig 13 sensitivity sweep, which
// varies total capacity at fixed banking).
func (c Config) WithCacheMB(totalMB int) Config {
	c.Cache.BankBytes = (totalMB << 20) / c.Cache.Banks
	return c
}

// SimStats aggregates simulator-level counters.
type SimStats struct {
	RootTasks      int64
	SearchTasks    int64
	BookkeepTasks  int64
	BacktrackTasks int64

	// Phase1Lines counts neighbor-index cache lines streamed by phase 1.
	Phase1Lines int64
	// Phase1Entries counts neighbor-index entries examined by the filter.
	Phase1Entries int64
	// Phase2Edges counts temporal edge records examined by phase 2.
	Phase2Edges int64
	// MemoReads/MemoWrites count memo-table accesses (§VI-A).
	MemoReads  int64
	MemoWrites int64
	// MemoSkippedEntries counts neighbor entries whose fetch memoization
	// avoided — the memory-traffic saving of Fig 10.
	MemoSkippedEntries int64

	// MemWaitCycles accumulates search-engine cycles spent waiting on the
	// memory system (the paper measures >98%, §VI-B).
	MemWaitCycles int64
	// BusyCycles accumulates cycles PEs spent in any non-idle state.
	BusyCycles int64
	// QueueWaitCycles accumulates cycles PEs waited on the root queue.
	QueueWaitCycles int64
}

// Result is the outcome of one simulation.
type Result struct {
	Matches int64
	Cycles  int64
	// Seconds is wall-clock time on the modeled hardware: Cycles/Clock.
	Seconds float64

	Cache cache.Stats
	DRAM  dram.Stats
	Stats SimStats

	// MemTrafficBytes is total DRAM traffic (the Fig 10 metric).
	MemTrafficBytes int64
	// BandwidthUtil is achieved DRAM bandwidth / peak (Fig 13).
	BandwidthUtil float64
	// CacheHitRate is the demand hit rate (Fig 13).
	CacheHitRate float64

	// Truncated reports that the simulation was stopped early by its
	// context or budget (SimulateCtx); Matches and the cycle/memory stats
	// then describe the exact partial run up to the stop cycle.
	Truncated bool
	// StopReason says why a truncated simulation stopped.
	StopReason runctl.Reason
}
