package mint

import (
	"context"
	"fmt"

	"mint/internal/cache"
	"mint/internal/dram"
	"mint/internal/faultinject"
	"mint/internal/mackey"
	"mint/internal/memlayout"
	"mint/internal/runctl"
	"mint/internal/task"
	"mint/internal/temporal"
)

// Simulate runs the Mint accelerator on graph g mining motif m and returns
// timing, memory-system, and task statistics. The match count is exact:
// the PEs drive the same task.Context transitions as the software runners.
func Simulate(g *temporal.Graph, m *temporal.Motif, cfg Config) (Result, error) {
	return SimulateCtl(g, m, cfg, nil)
}

// SimulateCtx is Simulate bounded by a context and a budget. The event
// loop polls the controller every few thousand simulated cycles; a stopped
// simulation returns the partial Result (exact matches and memory-system
// stats up to the stop cycle) with Truncated=true rather than an error.
func SimulateCtx(ctx context.Context, g *temporal.Graph, m *temporal.Motif, cfg Config, b runctl.Budget) (Result, error) {
	var ctl *runctl.Controller
	if (ctx != nil && ctx.Done() != nil) || !b.Unlimited() {
		ctl = runctl.New(ctx, b)
	}
	return SimulateCtl(g, m, cfg, ctl)
}

// SimulateCtl is Simulate under an externally owned controller (nil =
// unbounded), for callers coordinating several engines in one run.
func SimulateCtl(g *temporal.Graph, m *temporal.Motif, cfg Config, ctl *runctl.Controller) (Result, error) {
	if cfg.PEs <= 0 {
		return Result{}, fmt.Errorf("mint: PEs must be positive, got %d", cfg.PEs)
	}
	if cfg.ComparatorsPerCycle <= 0 {
		return Result{}, fmt.Errorf("mint: ComparatorsPerCycle must be positive")
	}
	if cfg.PrefetchDepth < 1 {
		cfg.PrefetchDepth = 1 // zero value means the baseline one-line overlap
	}
	dctrl, err := dram.NewController(cfg.DRAM)
	if err != nil {
		return Result{}, err
	}
	c, err := cache.New(cfg.Cache, dctrl)
	if err != nil {
		return Result{}, err
	}
	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 42
	}
	sim := &simulator{
		cfg:    cfg,
		g:      g,
		m:      m,
		layout: memlayout.New(g),
		cache:  c,
		dram:   dctrl,
		max:    maxCycles,
		ctl:    ctl,
	}
	if cfg.Memoize {
		sim.memo = mackey.NewMemoTable(g.NumNodes())
	}
	return sim.run()
}

// peState enumerates the PE pipeline stages (Fig 6(d)–(g)).
type peState uint8

const (
	stIdle      peState = iota // waiting on the root task queue
	stRootFetch                // fetching the root edge record from memory
	stCtxUpdate                // context manager performing BK/BT updates
	stDispatch                 // dispatcher forming a search task
	stMemoRead                 // reading the memoized search index (§VI-A)
	stP1Fetch                  // phase 1: issue a neighbor-index line fetch
	stP1Filter                 // phase 1: comparator filter over the line
	stP2Fetch                  // phase 2: issue a temporal-edge fetch
	stP2Check                  // phase 2: structural/temporal checks
	stGlobFetch                // whole-edge-list search: issue edge fetch
	stGlobCheck                // whole-edge-list search: check edge
	stMemoWrite                // write back the updated memo index
)

// pe is one processing engine: context manager + context memory +
// dispatcher + search engine.
type pe struct {
	state peState
	wake  int64

	ctx  task.Context
	spec task.SearchSpec

	// Phase-1 streaming state.
	pos        int // next absolute entry position in spec.List
	memoStart  int // first streamed position (0 without memoization)
	memoNewIdx int // first position with entry > rootEG; -1 if not yet seen

	// One-line prefetch (the phase-1/phase-2 overlap of the pipelined
	// search engine).
	nextLineReady int64
	nextLinePos   int
	nextLineValid bool

	// Candidates filtered from the current line, consumed by phase 2.
	cands [16]temporal.EdgeID
	candN int
	candI int

	// Global-shape search cursor.
	globPos temporal.EdgeID

	// Pending root / search outcome.
	root         temporal.EdgeID
	searchResult temporal.EdgeID

	// afterUpdate is the state to enter when the context update drains.
	afterUpdate peState
}

type simulator struct {
	cfg    Config
	g      *temporal.Graph
	m      *temporal.Motif
	layout *memlayout.Layout
	cache  *cache.Cache
	dram   *dram.Controller
	memo   *mackey.MemoTable
	max    int64
	ctl    *runctl.Controller

	pes       []pe
	nextRoot  int64
	lastGrant int64 // last cycle the task queue granted a root

	matches  int64
	stats    SimStats
	lastSeen int64 // latest wake observed: final cycle count

	// peBusy tallies busy cycles per PE for the sim.pe.busy_cycles
	// occupancy histogram; nil when no registry is attached, so the
	// cycle loop pays only a nil check.
	peBusy []int64

	// probeBuf is the one slice every Probe call receives.
	probeBuf []int32
}

// calendar queue ---------------------------------------------------------
//
// Wake-up deltas are short (cache hits, DRAM round trips, pipeline
// latencies), so a cycle-indexed wheel gives O(1) scheduling where a
// binary heap over hundreds of PEs spends most of the simulation sifting.
// Far-future wakes (deep DRAM queueing) overflow into a map consulted at
// each wheel wraparound.

const wheelBits = 13 // 8192-slot wheel

type wheel struct {
	slots    [1 << wheelBits][]int32
	overflow map[int64][]int32
	pending  int
}

func (w *wheel) push(wake int64, pe int32, now int64) {
	w.pending++
	if wake-now < int64(len(w.slots)) {
		idx := wake & (int64(len(w.slots)) - 1)
		w.slots[idx] = append(w.slots[idx], pe)
		return
	}
	if w.overflow == nil {
		w.overflow = make(map[int64][]int32)
	}
	w.overflow[wake] = append(w.overflow[wake], pe)
}

// run drives the event loop to completion.
func (s *simulator) run() (Result, error) {
	if s.cfg.Obs != nil {
		s.peBusy = make([]int64, s.cfg.PEs)
	}
	s.pes = make([]pe, s.cfg.PEs)
	s.lastGrant = -1 // first grant lands on cycle 0
	w := &wheel{}
	for i := range s.pes {
		s.pes[i].state = stIdle
		w.push(0, int32(i), 0)
	}

	var ready []int32
	truncated := false
	var flushedNodes, flushedMatches int64
	for cycle := int64(0); w.pending > 0; cycle++ {
		if cycle > s.max {
			return Result{}, fmt.Errorf("mint: exceeded MaxCycles=%d", s.max)
		}
		// Cooperative cancellation: poll the controller on an amortized
		// cycle stride, flushing functional progress (bookkeeping tasks as
		// node expansions) so deadline and budget checks can fire.
		if s.ctl != nil && cycle&(runctl.CheckInterval-1) == 0 {
			if plan := s.ctl.FaultPlan(); plan != nil {
				// Chaos site "mint.cycle", keyed by poll ordinal so the
				// decision is a pure function of simulated time. Any
				// injected fault truncates the simulation as FaultInjected
				// with exact partial stats.
				if err := fireCycleFault(plan, cycle/runctl.CheckInterval); err != nil {
					s.ctl.Stop(runctl.FaultInjected)
					truncated = true
					if cycle > s.lastSeen {
						s.lastSeen = cycle
					}
					break
				}
			}
			dn := s.stats.BookkeepTasks - flushedNodes
			dm := s.matches - flushedMatches
			flushedNodes, flushedMatches = s.stats.BookkeepTasks, s.matches
			if s.ctl.Checkpoint(dn, dm) {
				truncated = true
				if cycle > s.lastSeen {
					s.lastSeen = cycle
				}
				break
			}
		}
		// Fold due overflow entries back into the wheel once per lap.
		if cycle&(int64(len(w.slots))-1) == 0 && len(w.overflow) > 0 {
			for wake, pes := range w.overflow {
				if wake < cycle+int64(len(w.slots)) {
					idx := wake & (int64(len(w.slots)) - 1)
					w.slots[idx] = append(w.slots[idx], pes...)
					delete(w.overflow, wake)
				}
			}
		}
		idx := cycle & (int64(len(w.slots)) - 1)
		if len(w.slots[idx]) == 0 {
			continue
		}
		ready = append(ready[:0], w.slots[idx]...)
		w.slots[idx] = w.slots[idx][:0]
		w.pending -= len(ready)
		if cycle > s.lastSeen {
			s.lastSeen = cycle
		}
		for _, pi := range ready {
			p := &s.pes[pi]
			again := s.step(p, cycle)
			if !again {
				continue
			}
			if p.wake <= cycle {
				p.wake = cycle + 1
			}
			w.push(p.wake, pi, cycle)
			if p.state != stIdle {
				s.stats.BusyCycles += p.wake - cycle
				if s.peBusy != nil {
					s.peBusy[pi] += p.wake - cycle
				}
			}
		}
	}

	cycles := s.lastSeen
	cs := s.cache.Stats()
	ds := s.dram.Stats()
	res := Result{
		Matches:         s.matches,
		Cycles:          cycles,
		Seconds:         float64(cycles) / (s.cfg.ClockGHz * 1e9),
		Cache:           cs,
		DRAM:            ds,
		Stats:           s.stats,
		MemTrafficBytes: ds.TotalBytes(),
		BandwidthUtil:   s.dram.Utilization(cycles),
		CacheHitRate:    cs.HitRate(),
	}
	if truncated {
		res.Truncated = true
		res.StopReason = s.ctl.Reason()
	}
	publishSim(s.cfg, res, s.peBusy)
	return res, nil
}

// memAccess issues a cache request and classifies the wait. It returns
// false when the request must be retried next cycle.
func (s *simulator) memAccess(p *pe, addr uint64, cycle int64, write bool) bool {
	ready, ok := s.cache.Request(addr, cycle, write)
	if !ok {
		p.wake = cycle + 1
		return false
	}
	s.stats.MemWaitCycles += ready - cycle
	p.wake = ready
	return true
}

// step advances one PE at the given cycle. It returns false when the PE is
// permanently idle (roots exhausted) and should leave the event loop.
func (s *simulator) step(p *pe, cycle int64) bool {
	switch p.state {
	case stIdle:
		if s.nextRoot >= int64(s.g.NumEdges()) {
			return false // mining complete for this PE
		}
		// Single-ported task queue: one grant per cycle (Table II). Each
		// requesting PE reserves the next free grant slot instead of
		// spinning, preserving the 1-grant/cycle throughput exactly.
		grant := s.lastGrant + 1
		if grant < cycle {
			grant = cycle
		}
		s.lastGrant = grant
		s.stats.QueueWaitCycles += grant - cycle
		p.root = temporal.EdgeID(s.nextRoot)
		s.nextRoot++
		p.state = stRootFetch
		p.wake = grant + s.cfg.QueueDequeueLatency
		return true

	case stRootFetch:
		// The root task packet carries eG; the PE fetches the edge record
		// to learn src/dst/time (§V-B "Task queue").
		if !s.memAccess(p, s.layout.EdgeAddr(p.root), cycle, false) {
			return true
		}
		if !p.ctx.StartRoot(s.g, s.m, p.root) {
			p.state = stIdle // self-loop: structurally inadmissible root
			return true
		}
		s.stats.RootTasks++
		s.stats.BookkeepTasks++
		p.state = stCtxUpdate
		p.afterUpdate = stDispatch
		p.wake += s.cfg.CtxUpdateLatency + s.cfg.CtxAccessLatency
		return true

	case stCtxUpdate:
		p.state = p.afterUpdate
		if p.state == stDispatch {
			p.wake = cycle + s.cfg.DispatchLatency
		}
		return true

	case stDispatch:
		s.stats.SearchTasks++
		p.spec = task.PlanSearch(&p.ctx, s.g, s.m)
		p.searchResult = temporal.InvalidEdge
		p.candN, p.candI = 0, 0
		p.nextLineValid = false
		p.memoNewIdx = -1
		if p.spec.Global {
			p.globPos = p.ctx.Cursor
			p.state = stGlobFetch
			p.wake = cycle
			return true
		}
		p.memoStart = 0
		p.pos = 0
		if s.cfg.Memoize {
			p.state = stMemoRead
			p.wake = cycle
			return true
		}
		p.state = stP1Fetch
		p.wake = cycle
		return true

	case stMemoRead:
		// The dispatcher issues the memo-index load as part of forming the
		// search task, overlapped with the start of the phase-1 stream: the
		// read consumes a cache port and memory bandwidth but does not
		// serialize the engine (its value arrives within the first line's
		// fill in the common case).
		if _, ok := s.cache.Request(s.layout.MemoAddr(p.spec.Out, p.spec.Node), cycle, false); !ok {
			p.wake = cycle + 1
			return true
		}
		s.stats.MemoReads++
		if start, hit := s.memo.Lookup(p.spec.Out, p.spec.Node, p.ctx.RootEG); hit {
			p.memoStart = start
			p.pos = start
			s.stats.MemoSkippedEntries += int64(start)
		}
		p.state = stP1Fetch
		p.wake = cycle + 1
		return true

	case stP1Fetch:
		if p.pos >= len(p.spec.List) {
			return s.finishSearch(p, cycle, temporal.InvalidEdge)
		}
		if p.nextLineValid && p.nextLinePos == p.pos {
			p.nextLineValid = false
			p.wake = maxInt64(cycle, p.nextLineReady)
			p.state = stP1Filter
			return true
		}
		if !s.memAccess(p, s.layout.EntryAddr(p.spec.Out, p.spec.Node, p.pos), cycle, false) {
			return true
		}
		s.stats.Phase1Lines++
		p.state = stP1Filter
		return true

	case stP1Filter:
		// Filter all entries of the current line in one comparator pass.
		lineEnd := p.pos + s.entriesLeftInLine(p.spec, p.pos)
		if lineEnd > len(p.spec.List) {
			lineEnd = len(p.spec.List)
		}
		filtered := lineEnd - p.pos
		for ; p.pos < lineEnd; p.pos++ {
			id := p.spec.List[p.pos]
			s.stats.Phase1Entries++
			if p.memoNewIdx < 0 && id > p.ctx.RootEG {
				p.memoNewIdx = p.pos
			}
			if id >= p.ctx.Cursor && p.candN < len(p.cands) {
				p.cands[p.candN] = id
				p.candN++
			}
		}
		p.wake = cycle + int64((filtered+s.cfg.ComparatorsPerCycle-1)/s.cfg.ComparatorsPerCycle)
		// Prefetch the next line while phase 2 drains this one (baseline
		// pipeline overlap). Depths beyond 1 model the §VI-B neighborhood
		// prefetching ablation: extra fire-and-forget fetches that warm
		// MSHRs but consume ports and bandwidth.
		if p.pos < len(p.spec.List) {
			if ready, ok := s.cache.Request(s.layout.EntryAddr(p.spec.Out, p.spec.Node, p.pos), cycle, false); ok {
				s.stats.Phase1Lines++
				p.nextLineValid = true
				p.nextLinePos = p.pos
				p.nextLineReady = ready
			}
		}
		entriesPerLine := s.cfg.Cache.LineBytes / memlayout.EntryBytes
		for d := 1; d < s.cfg.PrefetchDepth; d++ {
			pos := p.pos + d*entriesPerLine
			if pos >= len(p.spec.List) {
				break
			}
			if _, ok := s.cache.Request(s.layout.EntryAddr(p.spec.Out, p.spec.Node, pos), cycle, false); ok {
				s.stats.Phase1Lines++
			}
		}
		if p.candN > 0 {
			p.candI = 0
			p.state = stP2Fetch
		} else {
			p.state = stP1Fetch
		}
		return true

	case stP2Fetch:
		if !s.memAccess(p, s.layout.EdgeAddr(p.cands[p.candI]), cycle, false) {
			return true
		}
		p.state = stP2Check
		p.wake++ // one check cycle after data arrival
		return true

	case stP2Check:
		// Examine every remaining candidate whose record sits in the line
		// just fetched (edge records pack 4 per 64 B line, and candidates
		// arrive in ascending edge order), one check cycle each.
		line := int64(s.cfg.Cache.LineBytes)
		cur := int64(s.layout.EdgeAddr(p.cands[p.candI])) / line
		checks := int64(0)
		for p.candI < p.candN {
			id := p.cands[p.candI]
			if int64(s.layout.EdgeAddr(id))/line != cur {
				break
			}
			e := s.g.Edges[id]
			s.stats.Phase2Edges++
			checks++
			if e.Time > p.ctx.Deadline {
				return s.finishSearch(p, cycle+checks, temporal.InvalidEdge)
			}
			if task.ValidCandidate(&p.ctx, p.spec, e) {
				return s.finishSearch(p, cycle+checks, id)
			}
			p.candI++
		}
		if p.candI < p.candN {
			p.state = stP2Fetch
		} else {
			p.candN = 0
			p.state = stP1Fetch
		}
		p.wake = cycle + checks
		return true

	case stGlobFetch:
		if int(p.globPos) >= s.g.NumEdges() {
			return s.finishSearch(p, cycle, temporal.InvalidEdge)
		}
		if !s.memAccess(p, s.layout.EdgeAddr(p.globPos), cycle, false) {
			return true
		}
		p.state = stGlobCheck
		p.wake++
		return true

	case stGlobCheck:
		// Check every edge record in the fetched line, one cycle each.
		line := int64(s.cfg.Cache.LineBytes)
		cur := int64(s.layout.EdgeAddr(p.globPos)) / line
		checks := int64(0)
		for int(p.globPos) < s.g.NumEdges() &&
			int64(s.layout.EdgeAddr(p.globPos))/line == cur {
			e := s.g.Edges[p.globPos]
			s.stats.Phase2Edges++
			checks++
			if e.Time > p.ctx.Deadline {
				return s.finishSearch(p, cycle+checks, temporal.InvalidEdge)
			}
			if task.ValidCandidate(&p.ctx, p.spec, e) {
				return s.finishSearch(p, cycle+checks, p.globPos)
			}
			p.globPos++
		}
		p.state = stGlobFetch
		p.wake = cycle + checks
		return true

	case stMemoWrite:
		// Memo writes retire through a store buffer: they consume a port
		// and bandwidth but never stall the engine.
		if _, ok := s.cache.Request(s.layout.MemoAddr(p.spec.Out, p.spec.Node), cycle, true); !ok {
			p.wake = cycle + 1
			return true
		}
		s.stats.MemoWrites++
		p.wake = cycle
		s.applyTaskResult(p)
		return true

	default:
		panic(fmt.Sprintf("mint: invalid PE state %d", p.state))
	}
}

// finishSearch concludes a search task with the given result (InvalidEdge
// on failure), first writing back the memo index when it moved.
func (s *simulator) finishSearch(p *pe, cycle int64, result temporal.EdgeID) bool {
	p.searchResult = result
	p.wake = cycle
	if s.cfg.Memoize && !p.spec.Global {
		if p.memoNewIdx < 0 {
			p.memoNewIdx = p.pos // whole tail ≤ rootEG: resume past it
		}
		s.memo.Update(p.spec.Out, p.spec.Node, p.ctx.RootEG, p.memoNewIdx)
		if p.memoNewIdx > p.memoStart {
			p.state = stMemoWrite
			return true
		}
	}
	s.applyTaskResult(p)
	return true
}

// applyTaskResult performs the functional bookkeep/backtrack transition
// spawned by the finished search and charges the context-manager latency.
func (s *simulator) applyTaskResult(p *pe) {
	updates := int64(1)
	if p.searchResult != temporal.InvalidEdge {
		s.stats.BookkeepTasks++
		if p.ctx.Bookkeep(s.g, s.m, p.searchResult) {
			s.matches++
			if s.cfg.Probe != nil {
				s.fireProbe(&p.ctx)
			}
			// A leaf immediately backtracks (Fig 4(d)).
			s.stats.BacktrackTasks++
			updates++
			if p.ctx.Backtrack(s.g, s.m) {
				p.afterUpdate = stIdle
			} else {
				p.afterUpdate = stDispatch
			}
		} else {
			p.afterUpdate = stDispatch
		}
	} else {
		s.stats.BacktrackTasks++
		if p.ctx.Backtrack(s.g, s.m) {
			p.afterUpdate = stIdle
		} else {
			p.afterUpdate = stDispatch
		}
	}
	p.state = stCtxUpdate
	p.wake += updates * (s.cfg.CtxUpdateLatency + s.cfg.CtxAccessLatency)
}

// fireProbe reports a completed match to the configured probe.
func (s *simulator) fireProbe(ctx *task.Context) {
	matched := ctx.Matched()
	if cap(s.probeBuf) < len(matched) {
		s.probeBuf = make([]int32, len(matched))
	}
	buf := s.probeBuf[:len(matched)]
	for i, id := range matched {
		buf[i] = int32(id)
	}
	s.cfg.Probe(buf)
}

// entriesLeftInLine reports how many list entries share the cache line of
// the entry at position pos (including it).
func (s *simulator) entriesLeftInLine(spec task.SearchSpec, pos int) int {
	addr := s.layout.EntryAddr(spec.Out, spec.Node, pos)
	line := uint64(s.cfg.Cache.LineBytes)
	next := (addr/line + 1) * line
	return int((next - addr) / memlayout.EntryBytes)
}

// fireCycleFault evaluates the simulator's chaos site, converting an
// injected panic into an error — the event loop has no per-PE blast
// radius to contain, so every fault kind maps to a clean truncation.
// Non-injected panics propagate.
func fireCycleFault(plan *faultinject.Plan, poll int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			inj, ok := r.(*faultinject.Injected)
			if !ok {
				panic(r)
			}
			err = inj
		}
	}()
	return plan.Fire("mint.cycle", poll, 0)
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
