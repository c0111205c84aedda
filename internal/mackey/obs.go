package mackey

import (
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
)

// Observability bridge: the miners keep their private, allocation-free
// Stats structs on the hot path and fold them into an obs.Registry once
// per worker per run (sharded by worker index), so live snapshots and
// the returned Stats are the same numbers by construction and the
// instrumented hot path costs nothing extra — the <3% overhead guard in
// obs_bench_test.go holds because this is a per-run, not per-event,
// operation.
//
// Counter names exported by the miners:
//
//	mackey.matches                  complete motif instances
//	mackey.root_tasks               search trees expanded
//	mackey.search_tasks             FindNextMatchingEdge invocations
//	mackey.bookkeep_tasks           successful edge mappings
//	mackey.backtrack_tasks          voided mappings
//	mackey.candidate_edges          edges examined (phase-2 workload)
//	mackey.neighbor_entries         neighbor-index entries streamed
//	mackey.neighbor_entries_useful  entries surviving the >eG filter
//	mackey.binary_searches          software filter binary searches
//	mackey.memo_hits                memoized phase-1 origins
//	mackey.memo_skipped_entries     entries the memo avoided fetching
//	mackey.branches                 data-dependent branch events
//	mackey.nodes_expanded           tree expansions (budget unit)
//	mackey.scans_time_pruned        scans cut short by the δ deadline
//	mackey.truncated_runs           runs that stopped early
//	mackey.parallel.chunks          root chunks pulled from the cursor
//	mackey.parallel.steals          chunk pulls beyond a worker's first
//	search.cache_hits               window-cache-served filter origins
//	search.cache_misses             cold/backward window-cache queries
//	pool.reuse                      workers recycled from the state pool
//
// (search.* and pool.* are shared hot-path names, not mackey.*: the task
// runtime publishes the same counters so one dashboard covers both.)
//
// plus gauges runctl.nodes / runctl.matches (controller totals) and
// histograms mackey.worker_busy_ns, mackey.worker_nodes (per-worker
// utilization) and runctl.cancel_latency_ns (stop-request → unwound).

// publishStats folds one worker's counters into the registry under the
// worker's shard. Safe with a nil registry.
func publishStats(reg *obs.Registry, shard int, s Stats) {
	if reg == nil {
		return
	}
	add := func(name string, v int64) {
		if v != 0 {
			reg.Counter(name).AddShard(shard, v)
		}
	}
	add("mackey.matches", s.Matches)
	add("mackey.root_tasks", s.RootTasks)
	add("mackey.search_tasks", s.SearchTasks)
	add("mackey.bookkeep_tasks", s.BookkeepTasks)
	add("mackey.backtrack_tasks", s.BacktrackTasks)
	add("mackey.candidate_edges", s.CandidateEdges)
	add("mackey.neighbor_entries", s.NeighborEntries)
	add("mackey.neighbor_entries_useful", s.NeighborEntriesUseful)
	add("mackey.binary_searches", s.BinarySearches)
	add("mackey.memo_hits", s.MemoHits)
	add("mackey.memo_skipped_entries", s.MemoSkippedEntries)
	add("mackey.branches", s.Branches)
	add("mackey.nodes_expanded", s.NodesExpanded)
	add("mackey.scans_time_pruned", s.TimePrunedScans)
	add("search.cache_hits", s.SearchCacheHits)
	add("search.cache_misses", s.SearchCacheMisses)
	add("pool.reuse", s.PoolReuse)
}

// publishRun records a completed run: the folded stats, the truncation
// counter, controller budget-consumption gauges, cancellation latency,
// and a wall-clock span under opts.Trace. start is the run's start time
// (zero when no trace is attached).
func publishRun(opts Options, shard int, res Result, span string, start time.Time) {
	if opts.Obs != nil {
		publishStats(opts.Obs, shard, res.Stats)
		if res.Truncated {
			opts.Obs.Counter("mackey.truncated_runs").AddShard(shard, 1)
		}
		publishController(opts.Obs, opts.Ctl)
	}
	opts.Trace.Record(span, int32(shard), start, time.Since(start))
}

// publishController exports the controller's flushed totals as budget
// consumption gauges and, for a stopped run, the observed cancellation
// latency (stop request → this call).
func publishController(reg *obs.Registry, ctl *runctl.Controller) {
	if reg == nil || ctl == nil {
		return
	}
	reg.Gauge("runctl.nodes").Set(ctl.Nodes())
	reg.Gauge("runctl.matches").Set(ctl.Matches())
	if st, ok := ctl.StopTime(); ok {
		reg.Histogram("runctl.cancel_latency_ns").Observe(time.Since(st).Nanoseconds())
	}
}

// RegistryProbe returns a Probe that routes the fine-grained
// characterization events into reg: histograms
// mackey.neighborhood_len (full list length per phase-1 access) and
// mackey.neighborhood_useful (entries surviving the filter), plus the
// counter mackey.probe_matches. This is the expensive, opt-in path —
// two histogram observes per neighborhood access — used by the Fig 7
// harness so characterization and live metrics read the same registry;
// the always-on counters above stay on the fold-once path.
func RegistryProbe(reg *obs.Registry) Probe {
	if reg == nil {
		return nil
	}
	return &registryProbe{
		lens:    reg.Histogram("mackey.neighborhood_len"),
		useful:  reg.Histogram("mackey.neighborhood_useful"),
		matches: reg.Counter("mackey.probe_matches"),
	}
}

type registryProbe struct {
	lens    *obs.Histogram
	useful  *obs.Histogram
	matches *obs.Counter
}

func (p *registryProbe) NeighborhoodAccess(node int32, out bool, listLen, filterPos int, rootEG int32) {
	p.lens.Observe(int64(listLen))
	p.useful.Observe(int64(listLen - filterPos))
}

func (p *registryProbe) Match(edges []int32) { p.matches.Add(1) }
