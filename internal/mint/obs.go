package mint

import (
	"mint/internal/cache"
	"mint/internal/dram"
	"mint/internal/obs"
)

// Observability for the cycle-level simulator. The event loop is single
// threaded and throughput-critical, so — like the miners — it keeps its
// private SimStats and per-PE busy tallies and publishes them once when
// the simulation retires.
//
// Counter names:
//
//	sim.matches / sim.cycles            functional outcome and run length
//	sim.root_tasks / sim.search_tasks /
//	sim.bookkeep_tasks /
//	sim.backtrack_tasks                 task taxonomy (Fig 4(a))
//	sim.phase1_lines / sim.phase1_entries / sim.phase2_edges
//	sim.memo_reads / sim.memo_writes / sim.memo_skipped_entries
//	sim.mem_wait_cycles / sim.busy_cycles / sim.queue_wait_cycles
//	sim.truncated_runs
//	cache.hits / cache.misses / cache.merged_miss / cache.port_stalls /
//	cache.mshr_stalls / cache.dram_stalls / cache.writebacks
//	dram.reads / dram.writes / dram.bytes_read / dram.bytes_write /
//	dram.busy_cycles
//
// plus the per-PE occupancy histogram sim.pe.busy_cycles (one sample
// per PE per run; its spread is the load-balance signal of §V-B's
// single-ported task queue).

// publishSim folds a completed simulation into cfg.Obs. peBusy is the
// per-PE busy-cycle tally (nil when observability was off). Nil-safe
// throughout.
func publishSim(cfg Config, res Result, peBusy []int64) {
	if cfg.Obs != nil {
		reg := cfg.Obs
		add := func(name string, v int64) {
			if v != 0 {
				reg.Counter(name).Add(v)
			}
		}
		add("sim.matches", res.Matches)
		add("sim.cycles", res.Cycles)
		add("sim.root_tasks", res.Stats.RootTasks)
		add("sim.search_tasks", res.Stats.SearchTasks)
		add("sim.bookkeep_tasks", res.Stats.BookkeepTasks)
		add("sim.backtrack_tasks", res.Stats.BacktrackTasks)
		add("sim.phase1_lines", res.Stats.Phase1Lines)
		add("sim.phase1_entries", res.Stats.Phase1Entries)
		add("sim.phase2_edges", res.Stats.Phase2Edges)
		add("sim.memo_reads", res.Stats.MemoReads)
		add("sim.memo_writes", res.Stats.MemoWrites)
		add("sim.memo_skipped_entries", res.Stats.MemoSkippedEntries)
		add("sim.mem_wait_cycles", res.Stats.MemWaitCycles)
		add("sim.busy_cycles", res.Stats.BusyCycles)
		add("sim.queue_wait_cycles", res.Stats.QueueWaitCycles)
		if res.Truncated {
			add("sim.truncated_runs", 1)
		}
		publishCache(reg, res.Cache)
		publishDRAM(reg, res.DRAM)
		if peBusy != nil {
			h := reg.Histogram("sim.pe.busy_cycles")
			for _, busy := range peBusy {
				h.Observe(busy)
			}
		}
	}
}

func publishCache(reg *obs.Registry, cs cache.Stats) {
	add := func(name string, v int64) {
		if v != 0 {
			reg.Counter(name).Add(v)
		}
	}
	add("cache.hits", cs.Hits)
	add("cache.misses", cs.Misses)
	add("cache.merged_miss", cs.MergedMiss)
	add("cache.port_stalls", cs.PortStalls)
	add("cache.mshr_stalls", cs.MSHRStalls)
	add("cache.dram_stalls", cs.DRAMStalls)
	add("cache.writebacks", cs.Writebacks)
}

func publishDRAM(reg *obs.Registry, ds dram.Stats) {
	add := func(name string, v int64) {
		if v != 0 {
			reg.Counter(name).Add(v)
		}
	}
	add("dram.reads", ds.Reads)
	add("dram.writes", ds.Writes)
	add("dram.bytes_read", ds.BytesRead)
	add("dram.bytes_write", ds.BytesWrite)
	add("dram.busy_cycles", ds.BusyCycles)
}
