package mint

// Streaming ingestion with incremental standing-query counts.
//
// A Stream is a live temporal graph fed by durable appends: every batch
// goes through the internal/edgelog WAL before it is visible, so a
// SIGKILL at any instant recovers — by replay — to exactly the acked
// edge sequence. On top of the live edge set the Stream maintains
// *standing queries*: registered motifs whose counts are kept current
// incrementally instead of by cold re-mines.
//
// The incremental step leans on the root-window partition property
// (RootWindow: instances partition exactly by the timestamp of their
// earliest edge). Appending edges with minimum timestamp p can only
// create or complete instances rooted in [p−δ, ∞): an instance rooted
// earlier has its whole window strictly before every new edge. Evicting
// edges below a cutoff c can only remove instances rooted below c: an
// instance rooted at r ≥ c uses no edge older than r. So with
//
//	old   = graph at the last successful integration (cutoff oldCut)
//	new   = current graph (cutoff newCut, pending edges ≥ p appended)
//	lo    = max(newCut, p−δ)
//
// the standing count advances by exactly
//
//	count(new) = count(old) − old[oldCut,newCut) − old[lo,∞) + new[lo,∞)
//
// — three root-windowed mines over slices of the timeline instead of one
// full re-mine. Every windowed mine must complete un-truncated for the
// fold to commit; otherwise the standing counts are marked Stale (loudly,
// with the stop reason) and the fold retries — from the same committed
// baseline — on the next append or Refresh. Counts are therefore always
// either exact or explicitly stale, never silently wrong.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"mint/internal/edgelog"
	"mint/internal/temporal"
)

// ErrInvalidEdge marks an edge batch the stream refuses to accept (a
// caller mistake — out-of-range endpoints — not an environment
// failure); re-exported so the serving layer can map it to 400.
var ErrInvalidEdge = edgelog.ErrInvalidEdge

// StreamOptions configures OpenStream.
type StreamOptions struct {
	// Window is the sliding retention window: once an edge with timestamp
	// T arrives, edges older than T−Window are evicted from the live
	// graph (the WAL keeps them until compaction). 0 retains everything.
	Window Timestamp
	// Workers bounds the parallelism of integration mines (< 1 means
	// GOMAXPROCS).
	Workers int
	// SnapshotEvery writes a WAL snapshot (and compacts covered segments)
	// after this many accepted appends; 0 means 256, < 0 disables.
	SnapshotEvery int
	// SegmentBytes / SyncEvery configure the underlying edge log (see
	// edgelog.Options).
	SegmentBytes int64
	SyncEvery    int
	// IntegrateBudget bounds each incremental integration mine. A
	// truncated integration never commits: it marks standing counts stale
	// and is retried. The zero budget is unlimited.
	IntegrateBudget Budget
	// Chaos, when non-nil, fires at the edgelog.* sites and inside the
	// integration mines (the engine sites).
	Chaos *ChaosPlan
	// Obs receives edgelog.* and stream.* instruments (nil-safe).
	Obs *ObsRegistry
	// Progress, when non-nil, receives per-segment replay progress during
	// OpenStream (see edgelog.Options.Progress).
	Progress func(edgelog.ReplayProgress)
}

// StreamRecovery reports what OpenStream rebuilt from disk.
type StreamRecovery struct {
	// Records is how many WAL records were replayed (beyond the snapshot).
	Records int
	// SnapshotSeq is the sequence of the snapshot replay started from (0
	// when none existed).
	SnapshotSeq uint64
	// Truncated reports that a damaged log tail was repaired by
	// truncation; Detail says where and why. The recovered state is a
	// clean prefix of the acked history — the loss is loud, never silent.
	Truncated bool
	Detail    string
}

// StandingCount is the queryable state of one registered standing query.
type StandingCount struct {
	Name  string    `json:"name"`
	Motif string    `json:"motif"`
	Delta Timestamp `json:"delta"`
	// Count is the exact instance count in the live graph as of Seq —
	// unless Stale, in which case it is the count as of the last
	// successful integration and Reason says why folding stopped.
	Count int64  `json:"count"`
	Seq   uint64 `json:"seq"`
	Stale bool   `json:"stale,omitempty"`
	// Reason carries the StopReason or error of the failed fold.
	Reason string `json:"reason,omitempty"`
}

type standingQuery struct {
	name  string
	motif *Motif
	count int64
	// seeded is false for a query restored from the WAL/snapshot (or
	// mirrored from a replication source) whose count has not been mined
	// yet: the next integration fully mines it against the live graph.
	// Standing counts are pure functions of the current graph, so seeding
	// at catch-up equals having folded every append since registration.
	seeded bool
	stale  bool
	reason string
}

// encodeStandingSpec renders a motif for a standing WAL record so the
// exact motif — including its display name — survives restart. The last
// '|' separates name from edges; edge specs never contain '|', so any
// '|' in the name stays unambiguous.
func encodeStandingSpec(m *Motif) string { return m.Name + "|" + m.String() }

// parseStandingSpec inverts encodeStandingSpec; a spec with no separator
// (foreign writer) falls back to the standing-query name.
func parseStandingSpec(fallbackName string, delta Timestamp, spec string) (*Motif, error) {
	name, edges := fallbackName, spec
	if i := strings.LastIndexByte(spec, '|'); i >= 0 {
		name, edges = spec[:i], spec[i+1:]
	}
	return ParseMotif(name, delta, edges)
}

// Stream is a durable, append-only live dataset with incremental
// standing-query counts. All methods are safe for concurrent use.
type Stream struct {
	opts StreamOptions
	log  *edgelog.Log

	mu sync.Mutex
	// edges is the live window in graph order: sorted by time, ties in
	// append order. Graphs adopt it without copying, so no element below
	// len(edges) is ever written again: in-order batches append past the
	// end, eviction reslices the front, and an out-of-order batch merges
	// into a fresh array.
	edges   []Edge
	maxTime Timestamp
	hasMax  bool
	cutoff  Timestamp
	hasCut  bool
	graph   *Graph   // adopts edges lazily; nil when dirty
	fp      liveHash // incremental fingerprint of edges
	lastSeq uint64   // last WAL seq applied to edges

	queries    map[string]*standingQuery
	countGraph *Graph // baseline of the committed standing counts
	// countCutoff/hasCountCut mirror cutoff/hasCut at the last committed
	// integration. hasCountCut matters: a baseline with no cutoff at all
	// is rooted from the beginning of time, not from the zero timestamp
	// (live sets may hold negative timestamps).
	countCutoff Timestamp
	hasCountCut bool
	// pendingMin is the minimum timestamp among edges appended since the
	// last committed integration; math.MaxInt64 means none pending.
	pendingMin    Timestamp
	integratedSeq uint64

	appendsSinceSnap int
	closed           bool
}

// OpenStream opens (or creates) the durable stream in dir, replaying the
// edge log into the live graph. A torn log tail is repaired and reported
// in StreamRecovery; corruption anywhere else fails loudly.
func OpenStream(dir string, opts StreamOptions) (*Stream, StreamRecovery, error) {
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 256
	}
	l, replay, err := edgelog.Open(dir, edgelog.Options{
		SegmentBytes: opts.SegmentBytes,
		SyncEvery:    opts.SyncEvery,
		Chaos:        opts.Chaos,
		Obs:          opts.Obs,
		Progress:     opts.Progress,
	})
	if err != nil {
		return nil, StreamRecovery{}, err
	}
	s := &Stream{
		opts:       opts,
		log:        l,
		queries:    map[string]*standingQuery{},
		pendingMin: math.MaxInt64,
		fp:         liveHash{pow: 1},
	}
	rec := StreamRecovery{
		Records:   len(replay.Records),
		Truncated: replay.Truncated,
		Detail:    replay.TruncateAt,
	}
	if snap := replay.Snapshot; snap != nil {
		rec.SnapshotSeq = snap.Seq
		s.lastSeq = snap.Seq
		// Older snapshots predate HasCutoff; for those, a non-zero cutoff
		// is the only signal.
		if snap.HasCutoff || snap.Cutoff != 0 {
			s.cutoff, s.hasCut = snap.Cutoff, true
		}
		s.loadWindowLocked(snap.Edges)
		for _, sp := range snap.Standing {
			op := edgelog.StandingOp{Op: edgelog.StandingRegister, Name: sp.Name, Spec: sp.Spec, Delta: sp.Delta}
			if err := s.applyStandingLocked(&op); err != nil {
				l.Close()
				return nil, rec, err
			}
		}
	}
	for _, r := range replay.Records {
		if err := s.consumeLocked(r); err != nil {
			l.Close()
			return nil, rec, err
		}
	}
	// The replayed graph is the committed baseline for standing counts.
	g, err := s.graphLocked()
	if err != nil {
		l.Close()
		return nil, rec, err
	}
	s.countGraph = g
	s.countCutoff = s.cutoff
	s.hasCountCut = s.hasCut
	s.pendingMin = math.MaxInt64
	s.integratedSeq = s.lastSeq
	if len(s.queries) > 0 {
		// Reseed restored standing queries with a full mine so the board
		// is exact (not just present) the moment the stream opens. On
		// failure the queries stay loudly stale and retry on the next
		// append or Refresh — the stream itself is healthy.
		if err := s.integrateLocked(context.Background()); err != nil {
			s.opts.Obs.Counter("stream.reseed_errors").Add(1)
		}
	}
	s.opts.Obs.Gauge("stream.edges").Set(int64(len(s.edges)))
	return s, rec, nil
}

// consumeLocked folds one durable record of any kind into in-memory
// state: edge batches go through applyLocked, standing records mutate the
// query board, epoch records only advance the position (the log itself
// tracks the epoch). Shared by replay and replication apply, so both
// paths reconstruct identical state from identical histories.
func (s *Stream) consumeLocked(r edgelog.Record) error {
	switch r.Kind {
	case edgelog.KindStanding:
		if err := s.applyStandingLocked(r.Standing); err != nil {
			return err
		}
		s.lastSeq = r.Seq
	case edgelog.KindEpoch:
		s.lastSeq = r.Seq
	default:
		s.applyLocked(r.Seq, r.Edges)
	}
	return nil
}

// applyStandingLocked replays one standing-board change. Registered
// queries start unseeded and stale: present immediately, exact after the
// next integration mines them.
func (s *Stream) applyStandingLocked(op *edgelog.StandingOp) error {
	if op == nil {
		return errors.New("mint: standing record without a body")
	}
	switch op.Op {
	case edgelog.StandingRegister:
		m, err := parseStandingSpec(op.Name, Timestamp(op.Delta), op.Spec)
		if err != nil {
			// The spec was parsed successfully when the record was acked,
			// so failing here means the log's history is not trustworthy.
			return fmt.Errorf("mint: replaying standing registration %q: %w", op.Name, err)
		}
		s.queries[op.Name] = &standingQuery{
			name: op.Name, motif: m,
			stale: true, reason: "restored from log; awaiting reseed",
		}
	case edgelog.StandingUnregister:
		delete(s.queries, op.Name)
	default:
		return fmt.Errorf("mint: unknown standing op %d for %q", op.Op, op.Name)
	}
	s.opts.Obs.Gauge("stream.standing_queries").Set(int64(len(s.queries)))
	return nil
}

func (s *Stream) observeTime(t Timestamp) {
	if !s.hasMax || t > s.maxTime {
		s.maxTime = t
		s.hasMax = true
	}
}

// loadWindowLocked replaces the live window with a snapshot's edges.
// Older snapshots stored the window in append order, newer ones in graph
// order; a stable sort maps both to graph order.
func (s *Stream) loadWindowLocked(edges []Edge) {
	s.maxTime, s.hasMax = 0, false
	for _, e := range edges {
		s.observeTime(e.Time)
	}
	s.edges = make([]Edge, len(edges), 2*len(edges))
	copy(s.edges, edges)
	slices.SortStableFunc(s.edges, byTime)
	s.fp.reset(s.edges)
	s.graph = nil
}

func byTime(a, b Edge) int { return cmp.Compare(a.Time, b.Time) }

// applyLocked folds one durable record into the live edge set: advance
// the time watermark, advance the eviction cutoff, drop evicted edges,
// then merge the batch into the sorted window. Replay calls it with the
// exact acked sequence, so the resulting state is a pure function of the
// record history — the property the differential suite pins.
func (s *Stream) applyLocked(seq uint64, edges []Edge) (accepted, evicted int) {
	for _, e := range edges {
		s.observeTime(e.Time)
	}
	if s.opts.Window > 0 && s.hasMax {
		if c := s.maxTime - s.opts.Window; !s.hasCut || c > s.cutoff {
			s.cutoff, s.hasCut = c, true
		}
	}
	if s.hasCut {
		k := sort.Search(len(s.edges), func(i int) bool { return s.edges[i].Time >= s.cutoff })
		for _, e := range s.edges[:k] {
			s.fp.pop(e)
		}
		s.edges = s.edges[k:]
		evicted += k
	}
	n := len(s.edges)
	s.reserveLocked(len(edges))
	for _, e := range edges {
		if s.hasCut && e.Time < s.cutoff {
			evicted++
			continue
		}
		s.edges = append(s.edges, e)
		if e.Time < s.pendingMin {
			s.pendingMin = e.Time
		}
	}
	accepted = len(s.edges) - n
	batch := s.edges[n:]
	slices.SortStableFunc(batch, byTime)
	if n == 0 || len(batch) == 0 || batch[0].Time >= s.edges[n-1].Time {
		for _, e := range batch {
			s.fp.push(e)
		}
	} else {
		s.mergeLocked(n)
	}
	s.graph = nil
	s.lastSeq = seq
	s.opts.Obs.Gauge("stream.edges").Set(int64(len(s.edges)))
	if evicted > 0 {
		s.opts.Obs.Counter("stream.evicted_edges").Add(int64(evicted))
	}
	return accepted, evicted
}

// reserveLocked makes room to append n edges without writing any element
// a graph may hold: when the backing array is full, the window moves to a
// fresh one with twice the room it needs.
func (s *Stream) reserveLocked(n int) {
	if cap(s.edges)-len(s.edges) >= n {
		return
	}
	grown := make([]Edge, len(s.edges), 2*(len(s.edges)+n))
	copy(grown, s.edges)
	s.edges = grown
}

// mergeLocked handles an out-of-order batch: s.edges[n:] is a sorted
// batch that starts before the window s.edges[:n] ends. The two merge,
// window first on equal times, into a fresh array (older graphs still
// hold the old one), and the fingerprint is rehashed.
func (s *Stream) mergeLocked(n int) {
	win, batch := s.edges[:n], s.edges[n:]
	merged := make([]Edge, 0, 2*len(s.edges))
	i, j := 0, 0
	for i < len(win) && j < len(batch) {
		if batch[j].Time < win[i].Time {
			merged = append(merged, batch[j])
			j++
		} else {
			merged = append(merged, win[i])
			i++
		}
	}
	merged = append(append(merged, win[i:]...), batch[j:]...)
	s.edges = merged
	s.fp.reset(merged)
	s.opts.Obs.Counter("stream.out_of_order").Add(1)
}

func (s *Stream) graphLocked() (*Graph, error) {
	if s.graph == nil {
		g, err := temporal.FromSorted(s.edges)
		if err != nil {
			return nil, err
		}
		s.graph = g
	}
	return s.graph, nil
}

// fingerprintLocked renders the live fingerprint: the window's length and
// its incremental hash.
func (s *Stream) fingerprintLocked() string {
	return fmt.Sprintf("live/%d/%016x", len(s.edges), s.fp.h)
}

// AppendResult reports one Append.
type AppendResult struct {
	// Seq is the WAL sequence the batch got (0 for duplicates).
	Seq uint64 `json:"seq"`
	// Dup marks an idempotent retry: the batch was already applied under
	// this client sequence and nothing was written.
	Dup bool `json:"dup,omitempty"`
	// Accepted/Evicted split the batch: evicted edges were older than the
	// sliding-window cutoff on arrival.
	Accepted int `json:"accepted"`
	Evicted  int `json:"evicted,omitempty"`
	// Stale reports that standing counts could not be folded for this
	// append (they are marked stale and will retry); the edge data itself
	// is durable and live regardless.
	Stale bool `json:"stale,omitempty"`
	// Edges and Fingerprint describe the live graph right after this
	// append (for a duplicate: the live graph now), read under the same
	// lock as the append, so a concurrent writer cannot leak into them.
	Edges       int    `json:"edges"`
	Fingerprint string `json:"fingerprint"`
}

// Append durably adds a batch of edges to the live graph and folds the
// delta into every registered standing query. The batch is acked only
// after the WAL write (and fsync, per policy) succeeds; on error nothing
// was applied. clientID/clientSeq give idempotent retry (see
// edgelog.Log.Append); an empty clientID opts out.
func (s *Stream) Append(ctx context.Context, clientID string, clientSeq uint64, edges []Edge) (AppendResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return AppendResult{}, errors.New("mint: append on closed stream")
	}
	rec, dup, err := s.log.Append(clientID, clientSeq, edges)
	if err != nil {
		return AppendResult{}, err
	}
	if dup {
		return AppendResult{Dup: true, Edges: len(s.edges), Fingerprint: s.fingerprintLocked()}, nil
	}
	var res AppendResult
	res.Seq = rec.Seq
	res.Accepted, res.Evicted = s.applyLocked(rec.Seq, rec.Edges)
	s.opts.Obs.Counter("stream.appends").Add(1)

	if err := s.integrateLocked(ctx); err != nil {
		res.Stale = true
	}

	s.appendsSinceSnap++
	if s.opts.SnapshotEvery > 0 && s.appendsSinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			// The WAL still holds everything; a failed snapshot only
			// delays compaction. Count it and retry next time.
			s.opts.Obs.Counter("stream.snapshot_errors").Add(1)
		} else {
			s.appendsSinceSnap = 0
		}
	}
	res.Edges, res.Fingerprint = len(s.edges), s.fingerprintLocked()
	return res, nil
}

// snapshotLocked persists the live state and compacts the WAL.
func (s *Stream) snapshotLocked() error {
	snap := &edgelog.Snapshot{
		Seq:       s.lastSeq,
		Edges:     s.edges[:len(s.edges):len(s.edges)],
		Cutoff:    s.cutoff,
		HasCutoff: s.hasCut,
		Standing:  s.standingSpecsLocked(),
	}
	return s.log.WriteSnapshot(snap)
}

// standingSpecsLocked renders the standing board for a snapshot, sorted
// by name so identical boards serialize identically.
func (s *Stream) standingSpecsLocked() []edgelog.StandingSpec {
	if len(s.queries) == 0 {
		return nil
	}
	specs := make([]edgelog.StandingSpec, 0, len(s.queries))
	for _, q := range s.queries {
		specs = append(specs, edgelog.StandingSpec{
			Name: q.name, Spec: encodeStandingSpec(q.motif), Delta: int64(q.motif.Delta),
		})
	}
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0 && specs[j].Name < specs[j-1].Name; j-- {
			specs[j], specs[j-1] = specs[j-1], specs[j]
		}
	}
	return specs
}

// Snapshot forces a WAL snapshot + compaction now.
func (s *Stream) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mint: snapshot on closed stream")
	}
	if err := s.snapshotLocked(); err != nil {
		return err
	}
	s.appendsSinceSnap = 0
	return nil
}

// integrateLocked advances every standing query from the committed
// baseline (countGraph, countCutoff) to the current live graph using the
// three root-windowed mines derived in the package comment. All groups
// must fold cleanly for the commit; any truncation or error marks every
// query stale and leaves the baseline untouched, so the next call
// retries the same fold.
func (s *Stream) integrateLocked(ctx context.Context) error {
	if len(s.queries) == 0 {
		// Keep the baseline current so a later Register starts clean.
		g, err := s.graphLocked()
		if err != nil {
			return err
		}
		s.countGraph = g
		s.countCutoff = s.cutoff
		s.hasCountCut = s.hasCut
		s.pendingMin = math.MaxInt64
		s.integratedSeq = s.lastSeq
		return nil
	}
	var reseed []*standingQuery
	for _, q := range s.queries {
		if !q.seeded {
			reseed = append(reseed, q)
		}
	}
	if len(reseed) == 0 && s.pendingMin == math.MaxInt64 && s.hasCut == s.hasCountCut &&
		s.cutoff == s.countCutoff && s.integratedSeq == s.lastSeq {
		return nil // nothing to fold
	}
	newG, err := s.graphLocked()
	if err != nil {
		s.markStaleLocked(err.Error())
		return err
	}

	// Group seeded standing queries by δ so each group's three windowed
	// mines co-mine every member in one traversal. Unseeded queries
	// (restored or mirrored) have no committed baseline to fold from and
	// are fully mined against the live graph instead.
	groups := map[Timestamp][]*standingQuery{}
	for _, q := range s.queries {
		if q.seeded {
			groups[q.motif.Delta] = append(groups[q.motif.Delta], q)
		}
	}

	type folded struct {
		q     *standingQuery
		count int64
	}
	var commits []folded
	if len(reseed) > 0 {
		motifs := make([]*Motif, len(reseed))
		for i, q := range reseed {
			motifs[i] = q.motif
		}
		counts, err := s.mineExact(ctx, "reseed", newG, motifs, nil)
		if err != nil {
			s.markStaleLocked(err.Error())
			return err
		}
		for i, c := range counts {
			commits = append(commits, folded{q: reseed[i], count: c})
		}
	}
	for delta, qs := range groups {
		motifs := make([]*Motif, len(qs))
		for i, q := range qs {
			motifs[i] = q.motif
		}
		deltas := make([]int64, len(qs))
		for i := range qs {
			deltas[i] = qs[i].count
		}

		// lo = max(newCut, pendingMin − δ), saturating.
		lo := Timestamp(math.MinInt64)
		if s.pendingMin != math.MaxInt64 {
			lo = s.pendingMin
			if lo > math.MinInt64+delta {
				lo -= delta
			} else {
				lo = math.MinInt64
			}
		} else {
			// No pending edges: only the eviction window changed, so the
			// suffix mines are empty.
			lo = math.MaxInt64
		}
		if s.hasCut && s.cutoff > lo {
			lo = s.cutoff
		}

		mine := func(g *Graph, w *RootWindow) ([]int64, error) {
			if w != nil && w.Start >= w.End {
				return make([]int64, len(motifs)), nil
			}
			return s.mineExact(ctx, "integration", g, motifs, w)
		}

		// A: instances of the old graph rooted in the evicted window. When
		// the baseline had no cutoff (hasCountCut false) that window opens
		// at the beginning of time — not at the zero timestamp, which
		// would miss (or, for a negative cutoff, skip) negative-rooted
		// instances and silently commit wrong counts.
		cutAdvanced := s.hasCut && (!s.hasCountCut || s.cutoff > s.countCutoff)
		if s.countGraph != nil && cutAdvanced {
			evictStart := Timestamp(math.MinInt64)
			if s.hasCountCut {
				evictStart = s.countCutoff
			}
			a, err := mine(s.countGraph, &RootWindow{Start: evictStart, End: s.cutoff})
			if err != nil {
				s.markStaleLocked(err.Error())
				return err
			}
			for i := range deltas {
				deltas[i] -= a[i]
			}
		}
		// B/C: replace the old suffix with the new suffix from lo up.
		if lo != math.MaxInt64 {
			suffix := &RootWindow{Start: lo, End: math.MaxInt64}
			if s.countGraph != nil {
				b, err := mine(s.countGraph, suffix)
				if err != nil {
					s.markStaleLocked(err.Error())
					return err
				}
				for i := range deltas {
					deltas[i] -= b[i]
				}
			}
			c, err := mine(newG, suffix)
			if err != nil {
				s.markStaleLocked(err.Error())
				return err
			}
			for i := range deltas {
				deltas[i] += c[i]
			}
		}
		for i, q := range qs {
			commits = append(commits, folded{q: q, count: deltas[i]})
		}
	}

	// Every group folded cleanly: commit atomically.
	for _, f := range commits {
		f.q.count = f.count
		f.q.seeded = true
		f.q.stale = false
		f.q.reason = ""
	}
	s.countGraph = newG
	s.countCutoff = s.cutoff
	s.hasCountCut = s.hasCut
	s.pendingMin = math.MaxInt64
	s.integratedSeq = s.lastSeq
	s.opts.Obs.Counter("stream.integrations").Add(1)
	return nil
}

// mineExact co-mines motifs over g (rooted in w when set) under the
// integration budget and refuses any truncated row: a standing count is
// committed exact or not at all.
func (s *Stream) mineExact(ctx context.Context, what string, g *Graph, motifs []*Motif, w *RootWindow) ([]int64, error) {
	res, err := Run(ctx, g, Query{
		Motifs:  motifs,
		Roots:   w,
		Workers: s.opts.Workers,
		Budget:  s.opts.IntegrateBudget,
		Chaos:   s.opts.Chaos,
		Obs:     s.opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, fmt.Errorf("mint: %s mine truncated: %v", what, res.StopReason)
	}
	out := make([]int64, len(motifs))
	for i, pm := range res.Batch.PerMotif {
		if pm.Truncated {
			return nil, fmt.Errorf("mint: %s mine truncated: %v", what, pm.StopReason)
		}
		out[i] = pm.Matches
	}
	return out, nil
}

func (s *Stream) markStaleLocked(reason string) {
	for _, q := range s.queries {
		q.stale = true
		q.reason = reason
	}
	s.opts.Obs.Counter("stream.integrations_stale").Add(1)
}

// Register adds a standing query: motif's instance count in the live
// graph, maintained incrementally from now on. The initial count is a
// full mine of the current graph; a truncated mine refuses the
// registration (a standing query must start exact).
func (s *Stream) Register(ctx context.Context, name string, motif *Motif) (StandingCount, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return StandingCount{}, errors.New("mint: register on closed stream")
	}
	if name == "" {
		return StandingCount{}, errors.New("mint: standing query needs a name")
	}
	if _, ok := s.queries[name]; ok {
		return StandingCount{}, fmt.Errorf("mint: standing query %q already registered", name)
	}
	// Fold any pending edges first so the new query's baseline graph is
	// the same countGraph every other query is committed against.
	if err := s.integrateLocked(ctx); err != nil {
		return StandingCount{}, fmt.Errorf("mint: cannot register %q while integration is failing: %w", name, err)
	}
	counts, err := s.mineExact(ctx, "initial", s.countGraph, []*Motif{motif}, nil)
	if err != nil {
		return StandingCount{}, fmt.Errorf("mint: not registering %q: %w", name, err)
	}
	// Persist the registration before exposing it: an acked standing
	// query must survive restart (and ship to followers) like any edge.
	rec, err := s.log.AppendStanding(edgelog.StandingOp{
		Op: edgelog.StandingRegister, Name: name,
		Spec: encodeStandingSpec(motif), Delta: int64(motif.Delta),
	})
	if err != nil {
		return StandingCount{}, fmt.Errorf("mint: persisting standing query %q: %w", name, err)
	}
	s.lastSeq = rec.Seq
	// integrateLocked above committed through the previous lastSeq and a
	// standing record changes no edges, so the counts are exact here too.
	s.integratedSeq = rec.Seq
	q := &standingQuery{name: name, motif: motif, count: counts[0], seeded: true}
	s.queries[name] = q
	s.opts.Obs.Gauge("stream.standing_queries").Set(int64(len(s.queries)))
	return s.standingLocked(q), nil
}

// Unregister removes a standing query, durably: the removal is a WAL
// record, so it also survives restart and ships to followers. Unknown
// names are a no-op (false, nil).
func (s *Stream) Unregister(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("mint: unregister on closed stream")
	}
	if _, ok := s.queries[name]; !ok {
		return false, nil
	}
	rec, err := s.log.AppendStanding(edgelog.StandingOp{Op: edgelog.StandingUnregister, Name: name})
	if err != nil {
		return false, fmt.Errorf("mint: persisting unregister of %q: %w", name, err)
	}
	s.lastSeq = rec.Seq
	delete(s.queries, name)
	s.opts.Obs.Gauge("stream.standing_queries").Set(int64(len(s.queries)))
	return true, nil
}

// Refresh retries a failed integration now (no-op when counts are
// current). Returns the first error if the fold still cannot commit.
func (s *Stream) Refresh(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mint: refresh on closed stream")
	}
	return s.integrateLocked(ctx)
}

func (s *Stream) standingLocked(q *standingQuery) StandingCount {
	return StandingCount{
		Name:   q.name,
		Motif:  q.motif.Name,
		Delta:  q.motif.Delta,
		Count:  q.count,
		Seq:    s.integratedSeq,
		Stale:  q.stale,
		Reason: q.reason,
	}
}

// Standing returns the current standing-query counts, sorted by name.
func (s *Stream) Standing() []StandingCount {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StandingCount, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, s.standingLocked(q))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Graph returns an immutable snapshot of the live graph. The snapshot is
// safe to mine concurrently with further appends (appends build new
// graphs; returned ones are never mutated).
func (s *Stream) Graph() (*Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("mint: graph on closed stream")
	}
	return s.graphLocked()
}

// ApplyReplicated appends one record shipped from a replication source
// verbatim — same seq, same kind, same payload — and folds it into the
// live edge set. It does NOT integrate standing counts (a follower
// refreshes once caught up; per-record mines during catch-up would cost
// thousands of mines with no reader) — restored queries stay loudly
// stale until then. A seq mismatch is a divergence refusal from the log.
func (s *Stream) ApplyReplicated(rec edgelog.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mint: apply on closed stream")
	}
	if err := s.log.AppendRecord(rec); err != nil {
		return err
	}
	if err := s.consumeLocked(rec); err != nil {
		return err
	}
	s.opts.Obs.Counter("stream.replicated_records").Add(1)
	s.appendsSinceSnap++
	if s.opts.SnapshotEvery > 0 && s.appendsSinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			s.opts.Obs.Counter("stream.snapshot_errors").Add(1)
		} else {
			s.appendsSinceSnap = 0
		}
	}
	return nil
}

// InstallSnapshot bootstraps this stream from a snapshot shipped by a
// replication source whose older WAL records were compacted away. The
// underlying log refuses the install unless it is empty — installing
// over local history would be silent divergence repair.
func (s *Stream) InstallSnapshot(snap *edgelog.Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mint: snapshot install on closed stream")
	}
	if err := s.log.InstallSnapshot(snap); err != nil {
		return err
	}
	s.loadWindowLocked(snap.Edges)
	s.cutoff, s.hasCut = 0, false
	if snap.HasCutoff || snap.Cutoff != 0 {
		s.cutoff, s.hasCut = snap.Cutoff, true
	}
	s.lastSeq = snap.Seq
	s.queries = map[string]*standingQuery{}
	for _, sp := range snap.Standing {
		op := edgelog.StandingOp{Op: edgelog.StandingRegister, Name: sp.Name, Spec: sp.Spec, Delta: sp.Delta}
		if err := s.applyStandingLocked(&op); err != nil {
			return err
		}
	}
	g, err := s.graphLocked()
	if err != nil {
		return err
	}
	s.countGraph = g
	s.countCutoff = s.cutoff
	s.hasCountCut = s.hasCut
	s.pendingMin = math.MaxInt64
	s.integratedSeq = s.lastSeq
	s.appendsSinceSnap = 0
	s.opts.Obs.Gauge("stream.edges").Set(int64(len(s.edges)))
	return nil
}

// ReadRecords exposes the log's shipping reader (see
// edgelog.Log.ReadRecords): durable records from fromSeq, plus the byte
// lag beyond the last one returned.
func (s *Stream) ReadRecords(fromSeq uint64, max int) ([]edgelog.Record, int64, error) {
	return s.log.ReadRecords(fromSeq, max)
}

// LoadSnapshot reads the stream's on-disk snapshot (nil when none), for
// bootstrapping a follower whose requested records were compacted away.
func (s *Stream) LoadSnapshot() (*edgelog.Snapshot, error) {
	return edgelog.LoadSnapshot(s.log.Dir())
}

// Epoch returns the stream's replication epoch.
func (s *Stream) Epoch() uint64 { return s.log.Epoch() }

// BumpEpoch durably raises the replication epoch (promotion): an epoch
// record lands in the WAL — fsynced — and ships to any follower like
// every other record.
func (s *Stream) BumpEpoch(to uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("mint: epoch bump on closed stream")
	}
	rec, err := s.log.BumpEpoch(to)
	if err != nil {
		return err
	}
	s.lastSeq = rec.Seq
	return nil
}

// Info reports the stream's position for readiness and dataset-info
// endpoints.
type StreamInfo struct {
	Seq         uint64    `json:"seq"`
	Edges       int       `json:"edges"`
	Cutoff      Timestamp `json:"cutoff"`
	MaxTime     Timestamp `json:"max_time"`
	Fingerprint string    `json:"fingerprint"`
	Segments    int       `json:"segments"`
	Epoch       uint64    `json:"epoch"`
}

// Info returns the current stream position. The fingerprint covers the
// live edge sequence in graph order and changes on every accepted append;
// a follower checks it against its source at catch-up. It is maintained
// incrementally (see liveHash), so Info costs O(1).
func (s *Stream) Info() StreamInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StreamInfo{
		Seq:         s.lastSeq,
		Edges:       len(s.edges),
		Cutoff:      s.cutoff,
		MaxTime:     s.maxTime,
		Fingerprint: s.fingerprintLocked(),
		Segments:    s.log.SegmentCount(),
		Epoch:       s.log.Epoch(),
	}
}

// Close syncs and closes the underlying log. Appends fail afterwards;
// previously returned graphs stay valid.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}
