package server

// Live-dataset ingestion: the serving-layer face of the durable edge
// WAL (internal/edgelog via mint.Stream). One dataset name is mutable —
// POST /v1/edges appends batches durably (WAL ack before graph
// visibility), standing queries fold each batch incrementally, and the
// ordinary mining endpoints resolve the live name to the stream's
// current graph (see liveGraph). Startup replay happens off the
// request path: until it lands, /readyz reports "replaying" and every
// live-dataset request answers 503 — a restarting server never serves
// a partially rebuilt graph.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/obs"
)

// ErrReplaying is returned by live-dataset paths while startup replay
// is still rebuilding the graph from the WAL; the HTTP layer maps it
// to 503 with a Retry-After.
var ErrReplaying = errors.New("live dataset is replaying the edge log")

// ErrIngestDisabled is returned when an ingest endpoint is hit on a
// server without an ingest directory configured.
var ErrIngestDisabled = errors.New("ingestion is not enabled (start mintd with -ingest-dir)")

// IngestConfig wires a durable live dataset into the server.
type IngestConfig struct {
	// Dir is the WAL directory; non-empty enables ingestion.
	Dir string
	// Dataset is the live dataset's name on the mining endpoints
	// ("" = "live"). It shadows any same-named static dataset.
	Dataset string
	// Window is the sliding retention window in dataset time units
	// (mint.StreamOptions.Window); 0 retains every appended edge.
	Window int64
	// SyncEvery is the WAL fsync policy (edgelog.Options.SyncEvery):
	// 0/1 = fsync every append, N = every Nth, -1 = never (OS flush).
	SyncEvery int
	// SegmentBytes is the WAL segment rotation threshold (0 = default).
	SegmentBytes int64
	// SnapshotEvery snapshots + compacts the WAL after this many
	// accepted appends (0 = default 256, < 0 disables).
	SnapshotEvery int
	// MaxBatchEdges caps one POST /v1/edges batch (0 = default
	// DefaultMaxBatchEdges). Oversized batches answer 400; the cap is
	// clamped to the WAL's own record limit (edgelog.MaxBatchEdges) so
	// an accepted batch always fits one replayable record.
	MaxBatchEdges int
	// Follow, when set, runs this node as a hot standby of the primary
	// mintd at this base URL: the live dataset is read-only here (writes
	// answer 409 pointing at the primary), WAL records are pulled and
	// applied continuously, and /readyz stays 503 "syncing" until
	// fingerprint-verified catch-up. POST /v1/promote flips the node to
	// primary. Requires Dir.
	Follow string
}

// DefaultMaxBatchEdges is the per-request edge-batch cap when
// IngestConfig.MaxBatchEdges is zero. Well under the WAL record limit:
// batches this size keep append latency and allocation bounded, and a
// client with more edges just splits them.
const DefaultMaxBatchEdges = 1 << 20

// maxBatch resolves the effective batch cap.
func (c IngestConfig) maxBatch() int {
	n := c.MaxBatchEdges
	if n <= 0 {
		n = DefaultMaxBatchEdges
	}
	if n > edgelog.MaxBatchEdges {
		n = edgelog.MaxBatchEdges
	}
	return n
}

// Enabled reports whether the config turns ingestion on.
func (c IngestConfig) Enabled() bool { return c.Dir != "" }

// Name returns the live dataset's serving name.
func (c IngestConfig) Name() string {
	if c.Dataset == "" {
		return "live"
	}
	return c.Dataset
}

// openLive is the startup replay goroutine: it rebuilds the live graph
// from the WAL (snapshot + record replay inside OpenStream) and only
// then flips liveReplaying off, which is what lets /readyz go ready
// and the live dataset resolve. A failed open leaves the server up —
// static datasets still serve — with the live paths answering 503
// loudly.
func (s *Server) openLive() {
	defer func() {
		s.liveReplaying.Store(false)
		close(s.liveReady)
	}()
	start := time.Now()
	st, rec, err := mint.OpenStream(s.cfg.Ingest.Dir, mint.StreamOptions{
		Window:        mint.Timestamp(s.cfg.Ingest.Window),
		Workers:       s.cfg.Workers,
		SnapshotEvery: s.cfg.Ingest.SnapshotEvery,
		SegmentBytes:  s.cfg.Ingest.SegmentBytes,
		SyncEvery:     s.cfg.Ingest.SyncEvery,
		Chaos:         s.cfg.Chaos,
		Obs:           s.obs,
		Progress:      func(p edgelog.ReplayProgress) { s.replayProg.Store(p) },
	})
	s.liveMu.Lock()
	s.live, s.liveRec, s.liveErr = st, rec, err
	s.liveMu.Unlock()
	if err != nil {
		s.obs.Counter("server.ingest.open_failed").Add(1)
		return
	}
	s.obs.Counter("server.ingest.replay_records").Add(int64(rec.Records))
	if rec.Truncated {
		// A crash tore the WAL tail and replay truncated at the last
		// valid record — recovered, loudly: the readyz payload carries
		// the flag and the counter marks the event.
		s.obs.Counter("server.ingest.replay_truncated").Add(1)
	}
	s.obs.Histogram("server.ingest.replay_ns").Observe(int64(time.Since(start)))
	if s.cfg.Ingest.Follow != "" {
		// Follower mode: start pulling from the primary. Readiness stays
		// gated on catch-up (handleReadyz), not on this goroutine.
		s.startFollower(st)
	}
}

// liveStream resolves the ingest stream, or the error that explains
// why it is not servable right now.
func (s *Server) liveStream() (*mint.Stream, error) {
	if !s.cfg.Ingest.Enabled() {
		return nil, ErrIngestDisabled
	}
	if s.liveReplaying.Load() {
		return nil, ErrReplaying
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.liveErr != nil {
		return nil, s.liveErr
	}
	if s.live == nil {
		// Drained: the front door already rejects requests; this is the
		// backstop for stragglers.
		return nil, ErrReplaying
	}
	return s.live, nil
}

// LiveStream exposes the ingest stream once replay has landed (tests,
// replication harnesses); it returns the same errors liveStream does.
func (s *Server) LiveStream() (*mint.Stream, error) {
	return s.liveStream()
}

// LiveReady returns a channel that closes once startup replay has
// finished (successfully or not). With ingestion disabled it is
// already closed.
func (s *Server) LiveReady() <-chan struct{} {
	if s.liveReady == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return s.liveReady
}

// IngestRecovery reports what startup replay rebuilt; it blocks until
// the replay finishes (mintd logs it once at boot).
func (s *Server) IngestRecovery() (mint.StreamRecovery, error) {
	<-s.LiveReady()
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return s.liveRec, s.liveErr
}

// liveGraph resolves the live dataset name to the stream's current
// graph, bypassing the registry: every append yields a new immutable
// graph, so there is nothing to cache and no stale entry to guard
// against. A request keeps the graph it resolved for its whole run.
func (s *Server) liveGraph(name string) (*mint.Graph, bool, error) {
	if !s.cfg.Ingest.Enabled() || name != s.cfg.Ingest.Name() {
		return nil, false, nil
	}
	st, err := s.liveStream()
	if err != nil {
		return nil, true, err
	}
	g, err := st.Graph()
	return g, true, err
}

// Wire shapes ------------------------------------------------------------

// IngestEdge is one edge on the wire. Endpoints are validated into the
// engine's int32 node space before the batch touches the WAL.
type IngestEdge struct {
	Src  int64 `json:"src"`
	Dst  int64 `json:"dst"`
	Time int64 `json:"time"`
}

// IngestRequest is one POST /v1/edges batch. ClientID+ClientSeq give
// idempotent retry: a client that re-sends a batch after a lost
// response (same id, same seq) gets "dup": true and nothing is
// appended twice. An empty ClientID opts out of the ledger.
type IngestRequest struct {
	ClientID  string       `json:"client_id,omitempty"`
	ClientSeq uint64       `json:"client_seq,omitempty"`
	Edges     []IngestEdge `json:"edges"`
	Priority  string       `json:"priority,omitempty"`
}

// IngestResponse acknowledges a durable append. The batch is on disk
// (per the fsync policy) before this response exists. Stale means the
// incremental standing-query fold was refused (budget/fault) — counts
// are loudly stale, never wrong, and the next append or refresh
// retries the fold.
type IngestResponse struct {
	Seq      uint64 `json:"seq"`
	Dup      bool   `json:"dup,omitempty"`
	Accepted int    `json:"accepted"`
	Evicted  int    `json:"evicted,omitempty"`
	Stale    bool   `json:"stale,omitempty"`
	// Edges / Fingerprint describe the live graph after the batch.
	Edges       int     `json:"edges"`
	Fingerprint string  `json:"fingerprint"`
	WallMS      float64 `json:"wall_ms"`
	TraceID     string  `json:"trace_id,omitempty"`
}

// StandingRegisterRequest registers a standing query on the live
// dataset: the named motif is counted once in full, then maintained
// incrementally across appends.
type StandingRegisterRequest struct {
	Name         string `json:"name"`
	Motif        string `json:"motif,omitempty"`
	MotifSpec    string `json:"motif_spec,omitempty"`
	DeltaSeconds int64  `json:"delta_seconds,omitempty"`
	Priority     string `json:"priority,omitempty"`
}

// StandingResponse carries one standing count.
type StandingResponse struct {
	Standing mint.StandingCount `json:"standing"`
	WallMS   float64            `json:"wall_ms"`
	TraceID  string             `json:"trace_id,omitempty"`
}

// StandingListResponse is the full standing-query board.
type StandingListResponse struct {
	Dataset  string               `json:"dataset"`
	Seq      uint64               `json:"seq"`
	Standing []mint.StandingCount `json:"standing"`
	WallMS   float64              `json:"wall_ms"`
	TraceID  string               `json:"trace_id,omitempty"`
}

// Handlers ---------------------------------------------------------------

// liveOr resolves the ingest stream, or writes the error that explains
// why it is not servable: disabled is the caller's mistake (400),
// replaying and broken are environment (503 with Retry-After).
func (s *Server) liveOr(w http.ResponseWriter) (*mint.Stream, bool) {
	st, err := s.liveStream()
	switch {
	case err == nil:
		return st, true
	case errors.Is(err, ErrIngestDisabled):
		WriteError(w, http.StatusBadRequest, err.Error(), 0)
	case errors.Is(err, ErrReplaying):
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(2*time.Second))
	default:
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(30*time.Second))
	}
	return nil, false
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.gateWrites(w) {
		return
	}
	var req IngestRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if len(req.Edges) == 0 {
		WriteError(w, http.StatusBadRequest, "edges are required", 0)
		return
	}
	if max := s.cfg.Ingest.maxBatch(); len(req.Edges) > max {
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d edges exceeds the %d-edge limit (split the batch)", len(req.Edges), max), 0)
		return
	}
	// Ingestion rides the same admission queue as mining: a server
	// drowning in queries sheds appends too (the client retries with
	// the same client_seq, so shedding is free), and the queue bound is
	// the ingest backpressure.
	q, ok := s.front.admit(w, r, "edges", req.Priority)
	if !ok {
		return
	}
	defer q.Done()
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	edges := make([]mint.Edge, len(req.Edges))
	for i, e := range req.Edges {
		if e.Src < 0 || e.Dst < 0 || e.Src > math.MaxInt32 || e.Dst > math.MaxInt32 {
			WriteError(w, http.StatusBadRequest,
				"edge endpoints must fit int32 and be non-negative", 0)
			return
		}
		edges[i] = mint.Edge{Src: mint.NodeID(e.Src), Dst: mint.NodeID(e.Dst), Time: mint.Timestamp(e.Time)}
	}
	rt := q.Trace
	sp := rt.Begin("ingest.append", rt.RootID())
	res, err := st.Append(q.Ctx, req.ClientID, req.ClientSeq, edges)
	sp.End()
	if err != nil {
		s.obs.Counter("server.ingest.append_failed").Add(1)
		if errors.Is(err, mint.ErrInvalidEdge) {
			WriteError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		// Durability failure (WAL write/fsync, injected fault): nothing
		// was applied; the client's retry with the same client_seq is
		// safe.
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(5*time.Second))
		return
	}
	if res.Stale {
		rt.Annotate("standing_stale", "true")
	}
	out := IngestResponse{
		Seq:         res.Seq,
		Dup:         res.Dup,
		Accepted:    res.Accepted,
		Evicted:     res.Evicted,
		Stale:       res.Stale,
		Edges:       res.Edges,
		Fingerprint: res.Fingerprint,
		WallMS:      float64(time.Since(q.Start).Microseconds()) / 1000,
		TraceID:     rt.TraceID(),
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleStandingRegister(w http.ResponseWriter, r *http.Request) {
	if !s.gateWrites(w) {
		return
	}
	var req StandingRegisterRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if req.Name == "" {
		WriteError(w, http.StatusBadRequest, "name is required", 0)
		return
	}
	m, err := motifFor(req.Name, req.Motif, req.MotifSpec, Delta(req.DeltaSeconds))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	// Registration runs a full mine to seed the count; it pays
	// admission like any mining request.
	q, ok := s.front.admit(w, r, "standing", req.Priority)
	if !ok {
		return
	}
	defer q.Done()
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	sp := q.Trace.Begin("ingest.register", q.Trace.RootID())
	sc, err := st.Register(q.Ctx, req.Name, m)
	sp.End()
	if err != nil {
		// Register refuses truncated initial mines rather than seeding a
		// silently short baseline.
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(s.front.RetryAfter()))
		return
	}
	WriteJSON(w, http.StatusOK, StandingResponse{
		Standing: sc,
		WallMS:   float64(time.Since(q.Start).Microseconds()) / 1000,
		TraceID:  q.Trace.TraceID(),
	})
}

func (s *Server) handleStandingList(w http.ResponseWriter, r *http.Request) {
	ctx, cleanup := s.front.RequestCtx(r)
	defer cleanup()
	start := time.Now()
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	rt := obs.ReqTraceFrom(ctx)
	info := st.Info()
	WriteJSON(w, http.StatusOK, StandingListResponse{
		Dataset:  s.cfg.Ingest.Name(),
		Seq:      info.Seq,
		Standing: st.Standing(),
		WallMS:   float64(time.Since(start).Microseconds()) / 1000,
		TraceID:  rt.TraceID(),
	})
}

func (s *Server) handleStandingUnregister(w http.ResponseWriter, r *http.Request) {
	if !s.gateWrites(w) {
		return
	}
	name := r.PathValue("name")
	if name == "" {
		WriteError(w, http.StatusBadRequest, "name is required", 0)
		return
	}
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	ok, err := st.Unregister(name)
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(30*time.Second))
		return
	}
	if !ok {
		WriteError(w, http.StatusNotFound, "no standing query named "+name, 0)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "unregistered", "name": name})
}
