// Package mackey implements the pattern-agnostic exact temporal motif
// mining algorithm of Mackey et al. ("A chronological edge-driven approach
// to temporal subgraph isomorphism", IEEE BigData 2018), which is the
// algorithm Mint accelerates (paper §II-D, Algorithm 1).
//
// Four miners are provided, all functionally identical:
//
//   - Mine: the recursive reference miner (clean DFS formulation). Its
//     worker walks a motif trie — a single motif is the one-path trie —
//     so the co-miner in internal/comine runs on the same traversal.
//   - MineAlgorithm1: an iterative miner mirroring the paper's Algorithm 1
//     line-by-line (explicit eStack, eCount, t′, backtracking loop).
//   - MineParallel: the task-centric multi-threaded variant the paper uses
//     as its CPU baseline (§VII-D), with work stealing over root tasks.
//   - MineMemo / MineParallelMemo: the above plus the software port of
//     Mint's search index memoization (§VI-A, evaluated in Fig 10/11 as
//     "Mackey et al. CPU w/ Memoization").
//
// All miners populate Stats, the instrumentation that drives the workload
// characterization experiments (Fig 2 and Fig 7) and validates the Mint
// simulator's functional layer.
package mackey

// Stats aggregates instrumentation counters from a mining run. Counters
// follow the paper's task taxonomy (§IV-A: search, book-keeping,
// backtracking) and its memory-behavior analysis (§III-B, §VI-A).
type Stats struct {
	// Matches is the number of complete motif instances found.
	Matches int64

	// RootTasks is the number of search trees expanded (one per graph
	// edge structurally admissible as the first motif edge).
	RootTasks int64

	// SearchTasks counts invocations of FindNextMatchingEdge.
	SearchTasks int64

	// BookkeepTasks counts successful edge mappings (context extensions).
	BookkeepTasks int64

	// BacktrackTasks counts voided mappings (context contractions).
	BacktrackTasks int64

	// CandidateEdges counts graph edges examined for structural/temporal
	// constraints (the phase-2 workload of the Mint search engine).
	CandidateEdges int64

	// NeighborEntries counts neighbor-index entries that a streaming
	// (hardware-style) phase-1 fetch would transfer: the full tail of the
	// neighborhood from the filter origin onward.
	NeighborEntries int64

	// NeighborEntriesUseful counts the subset of NeighborEntries with
	// edge index beyond the current eG — the entries the filter keeps.
	// NeighborEntriesUseful / NeighborEntries is the neighborhood
	// utilization of Fig 7.
	NeighborEntriesUseful int64

	// BinarySearches counts binary searches performed (the software
	// implementation's filter mechanism; doubled under memoization,
	// §VII-D "two search operations are triggered").
	BinarySearches int64

	// MemoHits counts phase-1 accesses that started from a memoized
	// index rather than position 0.
	MemoHits int64

	// MemoSkippedEntries counts neighbor-index entries whose fetch the
	// memoization avoided (the memory-traffic reduction of Fig 10).
	MemoSkippedEntries int64

	// Branches counts data-dependent branch events (candidate accepts/
	// rejects and backtrack decisions); input to the Fig 2 CPI stack.
	Branches int64

	// NodesExpanded counts search-tree node expansions — the unit the
	// runctl.Budget.MaxNodes budget is charged in. The exact definition is
	// per-miner (recursive-extend invocations for Mine, task-loop
	// iterations for MineAlgorithm1) but deterministic for a given miner,
	// graph, and motif, which is what makes truncation reproducible.
	NodesExpanded int64

	// TimePrunedScans counts candidate scans cut short by the δ-window
	// deadline (the e.Time > t′ break) rather than by list exhaustion —
	// the prune-reason breakdown the obs layer exports. At most one
	// increment per scan, so the hot path pays a single untaken branch.
	TimePrunedScans int64

	// SearchCacheHits counts phase-1 filter origins answered from the
	// per-worker window cache (exact repeats plus monotone advances);
	// SearchCacheMisses counts cold or backward-seeking queries that fell
	// back to a (range-narrowed) binary search. Both are zero for
	// memoized runs, whose memo table replaces the cache.
	SearchCacheHits   int64
	SearchCacheMisses int64

	// PoolReuse counts workers whose per-run state came from the
	// allocation pool rather than a fresh allocation (at most one per
	// worker per run); the steady-state value equals the worker count.
	PoolReuse int64
}

// Add accumulates other into s; used to merge per-worker stats.
func (s *Stats) Add(other Stats) {
	s.Matches += other.Matches
	s.RootTasks += other.RootTasks
	s.SearchTasks += other.SearchTasks
	s.BookkeepTasks += other.BookkeepTasks
	s.BacktrackTasks += other.BacktrackTasks
	s.CandidateEdges += other.CandidateEdges
	s.NeighborEntries += other.NeighborEntries
	s.NeighborEntriesUseful += other.NeighborEntriesUseful
	s.BinarySearches += other.BinarySearches
	s.MemoHits += other.MemoHits
	s.MemoSkippedEntries += other.MemoSkippedEntries
	s.Branches += other.Branches
	s.NodesExpanded += other.NodesExpanded
	s.TimePrunedScans += other.TimePrunedScans
	s.SearchCacheHits += other.SearchCacheHits
	s.SearchCacheMisses += other.SearchCacheMisses
	s.PoolReuse += other.PoolReuse
}

// Sub returns s minus other, field-wise — the inverse of Add. The
// supervisor uses it to isolate one chunk's contribution from a worker's
// cumulative tally (snapshot before, subtract after).
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Matches:               s.Matches - other.Matches,
		RootTasks:             s.RootTasks - other.RootTasks,
		SearchTasks:           s.SearchTasks - other.SearchTasks,
		BookkeepTasks:         s.BookkeepTasks - other.BookkeepTasks,
		BacktrackTasks:        s.BacktrackTasks - other.BacktrackTasks,
		CandidateEdges:        s.CandidateEdges - other.CandidateEdges,
		NeighborEntries:       s.NeighborEntries - other.NeighborEntries,
		NeighborEntriesUseful: s.NeighborEntriesUseful - other.NeighborEntriesUseful,
		BinarySearches:        s.BinarySearches - other.BinarySearches,
		MemoHits:              s.MemoHits - other.MemoHits,
		MemoSkippedEntries:    s.MemoSkippedEntries - other.MemoSkippedEntries,
		Branches:              s.Branches - other.Branches,
		NodesExpanded:         s.NodesExpanded - other.NodesExpanded,
		TimePrunedScans:       s.TimePrunedScans - other.TimePrunedScans,
		SearchCacheHits:       s.SearchCacheHits - other.SearchCacheHits,
		SearchCacheMisses:     s.SearchCacheMisses - other.SearchCacheMisses,
		PoolReuse:             s.PoolReuse - other.PoolReuse,
	}
}

// Utilization returns the overall neighborhood-data utilization (Fig 7):
// the fraction of streamed neighbor entries that survive the time filter.
func (s *Stats) Utilization() float64 {
	if s.NeighborEntries == 0 {
		return 0
	}
	return float64(s.NeighborEntriesUseful) / float64(s.NeighborEntries)
}

// Probe receives fine-grained events during mining. All methods may be
// called very frequently; implementations must be cheap. A nil Probe is
// always legal — everywhere, including inside MultiProbe — and the
// miners' dispatch is nil-safe, so characterization hooks (Fig 2/Fig 7)
// and live metrics can share one code path without enablement branches.
type Probe interface {
	// NeighborhoodAccess fires once per phase-1 candidate gathering over a
	// node neighborhood. node is the graph node, out reports direction
	// (true = outgoing), listLen the full neighborhood size, filterPos the
	// position of the first entry surviving the >eG filter, and rootEG the
	// root edge of the current search tree (a proxy for algorithm
	// progress, the x-axis of Fig 7).
	NeighborhoodAccess(node int32, out bool, listLen, filterPos int, rootEG int32)

	// Match fires once per complete motif instance, with the matched
	// graph-edge indices in motif order. The slice is reused; copy to
	// retain.
	Match(edges []int32)
}

// NopProbe is an embeddable no-op Probe: embed it to implement only the
// hooks a characterization cares about.
type NopProbe struct{}

// NeighborhoodAccess implements Probe as a no-op.
func (NopProbe) NeighborhoodAccess(int32, bool, int, int, int32) {}

// Match implements Probe as a no-op.
func (NopProbe) Match([]int32) {}

// MultiProbe fans every event out to several probes. Nil entries are
// dropped, so callers can compose optional probes without branching:
// MultiProbe(nil) and MultiProbe() return nil (no probe at all), and a
// single survivor is returned unwrapped to keep dispatch direct.
func MultiProbe(ps ...Probe) Probe {
	kept := make(multiProbe, 0, len(ps))
	for _, p := range ps {
		if p != nil {
			kept = append(kept, p)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	default:
		return kept
	}
}

type multiProbe []Probe

func (m multiProbe) NeighborhoodAccess(node int32, out bool, listLen, filterPos int, rootEG int32) {
	for _, p := range m {
		p.NeighborhoodAccess(node, out, listLen, filterPos, rootEG)
	}
}

func (m multiProbe) Match(edges []int32) {
	for _, p := range m {
		p.Match(edges)
	}
}
