package server

// The worker's API. Each mining endpoint runs the front end's ladder
// (decode → admission → budget, then Reply; see front.go) around the
// worker's role step: dataset registry → breaker routing → engine.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/obs"
	"mint/internal/runctl"
)

// API request/response shapes -------------------------------------------

// CountRequest asks for a motif count on a registered dataset.
type CountRequest struct {
	// Dataset names a Table I dataset ("wiki-talk", "wt", ...).
	Dataset string `json:"dataset"`
	// Motif names an evaluation motif (M1..M4); MotifSpec, when set,
	// wins and carries the compact syntax ("A->B;B->C;C->A").
	Motif     string `json:"motif,omitempty"`
	MotifSpec string `json:"motif_spec,omitempty"`
	// Motifs / MotifSpecs switch the request to batch mode: the whole
	// set is counted in ONE co-mined run (same-δ motifs share a
	// traversal) under one shared budget, and the response carries one
	// PerMotif entry per requested motif — named motifs first, then
	// specs, in request order. Batch mode is exact-or-loud: there is no
	// sampling fallback, and it conflicts with Motif/MotifSpec and
	// Supervised (400).
	Motifs     []string `json:"motifs,omitempty"`
	MotifSpecs []string `json:"motif_specs,omitempty"`
	// DeltaSeconds is the motif window δ (0 = one hour).
	DeltaSeconds int64 `json:"delta_seconds,omitempty"`
	// TimeoutMS is the client's wall-clock budget; the server clamps it
	// to its own caps.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxMatches / MaxNodes tighten the derived budget further.
	MaxMatches int64 `json:"max_matches,omitempty"`
	MaxNodes   int64 `json:"max_nodes,omitempty"`
	// Priority is "low", "normal" (default), or "high" — the
	// load-shedding tier, not a scheduling weight.
	Priority string `json:"priority,omitempty"`
	// Supervised runs the fault-tolerant checkpointing miner; requires
	// the server to be configured with a checkpoint directory.
	Supervised bool `json:"supervised,omitempty"`
	// RootWindow restricts the count to motif instances whose root
	// (earliest) edge timestamp falls in this half-open window. The
	// scatter-gather coordinator uses it to assign each shard its owned
	// slice of the root space; restricted requests never degrade to the
	// sampling estimator (it cannot scope an estimate to a root window).
	RootWindow *TimeWindow `json:"root_window,omitempty"`
	// Explain asks for the inline span/decision tree (admission wait,
	// registry checkout, breaker verdict, per-shard fan-out, engine
	// spans) in the response.
	Explain bool `json:"explain,omitempty"`
	// ReturnTrace asks for the raw span fragment in the response — the
	// coordinator sets it on shard fan-out calls so shard-side spans can
	// be merged into one cross-process trace.
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// TimeWindow is a half-open timestamp window [start_ts, end_ts) in
// dataset time units.
type TimeWindow struct {
	StartTS int64 `json:"start_ts"`
	EndTS   int64 `json:"end_ts"`
}

// PartialInfo marks a merged scatter-gather answer assembled without
// every shard: the count is the sum over the shards that responded — a
// loud lower bound, never a silently wrong total.
type PartialInfo struct {
	// MissingShards names the shards (by URL) whose owned root windows
	// are not included in the merged count.
	MissingShards []string `json:"missing_shards"`
	// Bound says which side the reported count bounds the true answer
	// from; summing exact/truncated shard counts always yields "lower".
	Bound string `json:"bound"`
}

// CountResponse is the answer. Exactly one of these holds: Exact
// (engine "exact"), Degraded (engine "presto", estimate), or Truncated
// (partial lower bound, stop reason named).
type CountResponse struct {
	Count    float64 `json:"count"`
	Exact    bool    `json:"exact"`
	Degraded bool    `json:"degraded"`
	// Engine names the producer: "exact", "presto", or "partial".
	Engine     string `json:"engine"`
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
	// ExactPartial is the exact stage's partial count — always a valid
	// lower bound, even on degraded answers.
	ExactPartial int64 `json:"exact_partial"`
	// Checkpoint is the server-side checkpoint path of a supervised
	// request (resume evidence after a drain).
	Checkpoint string  `json:"checkpoint,omitempty"`
	WallMS     float64 `json:"wall_ms"`
	// Partial is set only on merged scatter-gather responses whose
	// fan-out lost shards; single-process servers never set it.
	Partial *PartialInfo `json:"partial,omitempty"`
	// TraceID is the request's distributed trace id (also echoed on the
	// X-Trace-Id header); feed it to GET /debug/trace/<id>.
	TraceID string `json:"trace_id,omitempty"`
	// Explain is the span/decision tree, present when the request asked
	// for it.
	Explain *obs.ExplainNode `json:"explain,omitempty"`
	// TraceFrag carries the raw spans when the request set return_trace
	// (coordinator fan-out); stripped from merged client responses.
	TraceFrag []obs.Span `json:"trace_frag,omitempty"`
	// PerMotif is present on batch responses only: one entry per
	// requested motif, in request order (Motifs then MotifSpecs). The
	// top-level Count is then the sum over entries.
	PerMotif []MotifCountEntry `json:"per_motif,omitempty"`
}

// MotifCountEntry is one motif's row in a batch count response. A
// truncated entry is an exact lower bound, loudly flagged with the stop
// reason — never a silently short count.
type MotifCountEntry struct {
	Motif      string `json:"motif"`
	Spec       string `json:"spec"`
	Count      int64  `json:"count"`
	Truncated  bool   `json:"truncated,omitempty"`
	StopReason string `json:"stop_reason,omitempty"`
}

// EnumerateRequest asks for concrete matches, paginated.
type EnumerateRequest struct {
	Dataset      string `json:"dataset"`
	Motif        string `json:"motif,omitempty"`
	MotifSpec    string `json:"motif_spec,omitempty"`
	DeltaSeconds int64  `json:"delta_seconds,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	Priority     string `json:"priority,omitempty"`
	// Limit is the page size (required; clamped to the server cap).
	Limit int `json:"limit"`
	// PageToken resumes a previous enumeration (opaque; returned as
	// NextPageToken). Enumeration order is deterministic, so a token is
	// stable across requests.
	PageToken string `json:"page_token,omitempty"`
	// RootWindow restricts enumeration to instances rooted in this
	// half-open window (scatter-gather fan-out; see CountRequest).
	RootWindow *TimeWindow `json:"root_window,omitempty"`
	// Explain / ReturnTrace: see CountRequest.
	Explain     bool `json:"explain,omitempty"`
	ReturnTrace bool `json:"return_trace,omitempty"`
}

// EnumerateResponse carries one page of matches (each match is the
// motif-ordered list of graph edge IDs).
type EnumerateResponse struct {
	Matches       [][]int32 `json:"matches"`
	NextPageToken string    `json:"next_page_token,omitempty"`
	Truncated     bool      `json:"truncated,omitempty"`
	StopReason    string    `json:"stop_reason,omitempty"`
	WallMS        float64   `json:"wall_ms"`
	// Partial: see CountResponse.Partial.
	Partial *PartialInfo `json:"partial,omitempty"`
	// TraceID / Explain / TraceFrag: see CountResponse.
	TraceID   string           `json:"trace_id,omitempty"`
	Explain   *obs.ExplainNode `json:"explain,omitempty"`
	TraceFrag []obs.Span       `json:"trace_frag,omitempty"`
}

// DatasetInfoRequest asks a worker to describe the data it serves under
// a dataset name — the coordinator's pre-merge identity check.
type DatasetInfoRequest struct {
	Dataset string `json:"dataset"`
}

// DatasetInfoResponse reports the dataset's shape, time extent, and
// identity fingerprint. Two workers whose fingerprints differ are not
// serving the same data, and a coordinator must refuse to merge their
// counts.
type DatasetInfoResponse struct {
	Dataset     string `json:"dataset"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	MinTS       int64  `json:"min_ts"`
	MaxTS       int64  `json:"max_ts"`
	Fingerprint string `json:"fingerprint"`
	// Live marks a mutable (ingest/replicated) dataset: its fingerprint
	// describes this instant, so coordinators must not cache it.
	Live bool `json:"live,omitempty"`
}

// ProfileRequest asks for the M1–M4 motif profile of a dataset.
type ProfileRequest struct {
	Dataset      string `json:"dataset"`
	DeltaSeconds int64  `json:"delta_seconds,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	Priority     string `json:"priority,omitempty"`
	// Explain: see CountRequest.
	Explain bool `json:"explain,omitempty"`
}

// ProfileEntry is one motif's row in a profile.
type ProfileEntry struct {
	Motif      string  `json:"motif"`
	Spec       string  `json:"spec"`
	Count      int64   `json:"count"`
	Density    float64 `json:"density"`
	Truncated  bool    `json:"truncated,omitempty"`
	StopReason string  `json:"stop_reason,omitempty"`
}

// ProfileResponse is the full profile.
type ProfileResponse struct {
	Profile []ProfileEntry   `json:"profile"`
	WallMS  float64          `json:"wall_ms"`
	TraceID string           `json:"trace_id,omitempty"`
	Explain *obs.ExplainNode `json:"explain,omitempty"`
	// Partial is set only on merged scatter-gather profiles whose
	// fan-out lost shards; every entry is then a loud lower bound.
	Partial *PartialInfo `json:"partial,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error             string `json:"error"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// Routing ----------------------------------------------------------------

func (s *Server) routes() {
	f := s.front
	f.Handle("POST /v1/count", "count", s.handleCount)
	f.Handle("POST /v1/enumerate", "enumerate", s.handleEnumerate)
	f.Handle("POST /v1/profile", "profile", s.handleProfile)
	f.Handle("POST /v1/datasetinfo", "datasetinfo", s.handleDatasetInfo)
	f.Handle("POST /v1/edges", "edges", s.handleIngest)
	f.Handle("POST /v1/standing", "standing", s.handleStandingRegister)
	f.Handle("GET /v1/standing", "standing_list", s.handleStandingList)
	f.Handle("DELETE /v1/standing/{name}", "standing_delete", s.handleStandingUnregister)
	f.Handle("POST /v1/replication/pull", "replication_pull", s.handleReplicationPull)
	f.Handle("GET /v1/replication/snapshot", "replication_snapshot", s.handleReplicationSnapshot)
	f.Handle("GET /v1/replication/status", "replication_status", s.handleReplicationStatus)
	f.Handle("POST /v1/promote", "promote", s.handlePromote)
	f.HandleReadyz(s.handleReadyz)
}

// Delta is a request's motif window δ: delta_seconds, or one hour when
// unset. The coordinator plans its shards with the same default the
// workers mine with.
func Delta(seconds int64) mint.Timestamp {
	if seconds <= 0 {
		return mint.DeltaHour
	}
	return mint.Timestamp(seconds)
}

// motifFor resolves a request's motif at δ: the compact spec (named
// label) when set, otherwise the named motif (M1 when unnamed).
func motifFor(label, name, spec string, delta mint.Timestamp) (*mint.Motif, error) {
	if spec != "" {
		return mint.ParseMotif(label, delta, spec)
	}
	if name == "" {
		name = "M1"
	}
	return mint.MotifByName(name, delta)
}

// checkout pins a dataset in the registry under a registry.checkout
// span (eviction cannot race the caller; defer the release); the live
// dataset resolves to the stream's current graph instead. It writes
// its own errors: 400 for a missing or unknown dataset, 503 for
// environment failures.
func (s *Server) checkout(w http.ResponseWriter, ctx context.Context, dataset string) (*mint.Graph, func(), bool) {
	if dataset == "" {
		WriteError(w, http.StatusBadRequest, "dataset is required", 0)
		return nil, nil, false
	}
	rt := obs.ReqTraceFrom(ctx)
	sp := rt.Begin("registry.checkout", rt.RootID())
	sp.Set("dataset", dataset)
	g, live, err := s.liveGraph(dataset)
	release := func() {}
	if !live {
		g, release, err = s.data.Checkout(ctx, dataset)
	}
	sp.End()
	if err != nil {
		if errors.Is(err, ErrUnknownDataset) {
			WriteError(w, http.StatusBadRequest, err.Error(), 0)
		} else {
			WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(5*time.Second))
		}
		return nil, nil, false
	}
	return g, release, true
}

// rootWindowFor maps the wire-level root window onto the engine's.
func rootWindowFor(tw *TimeWindow) *mint.RootWindow {
	if tw == nil {
		return nil
	}
	return &mint.RootWindow{Start: mint.Timestamp(tw.StartTS), End: mint.Timestamp(tw.EndTS)}
}

// workloadKey is the breaker key: dataset × motif class. Named motifs
// class by name; custom specs by their canonical edge syntax, so two
// spellings of one motif share a breaker; a motif set classes by size.
func workloadKey(dataset string, mq mint.Query) string {
	if len(mq.Motifs) > 0 {
		return dataset + "/batch:" + strconv.Itoa(len(mq.Motifs))
	}
	if m := mq.Motif; m.Name != "" && m.Name != "custom" {
		return dataset + "/" + m.Name
	}
	return dataset + "/custom:" + mq.Motif.String()
}

// batchMotifs resolves a batch request's motif list: named motifs
// first, then custom specs, all at the request δ — the deterministic
// order the PerMotif entries (and the coordinator's entrywise merge)
// are keyed on.
func batchMotifs(req *CountRequest) ([]*mint.Motif, error) {
	delta := Delta(req.DeltaSeconds)
	motifs := make([]*mint.Motif, 0, len(req.Motifs)+len(req.MotifSpecs))
	for _, name := range req.Motifs {
		m, err := mint.MotifByName(name, delta)
		if err != nil {
			return nil, err
		}
		motifs = append(motifs, m)
	}
	for i, spec := range req.MotifSpecs {
		m, err := mint.ParseMotif(fmt.Sprintf("custom%d", i), delta, spec)
		if err != nil {
			return nil, err
		}
		motifs = append(motifs, m)
	}
	return motifs, nil
}

// The one query path ------------------------------------------------------

// job is one decoded mining request: the request's part of the Query
// (serve adds the server's workers, chaos plan and metrics), the
// dataset, the route's span, and the mapping of the run onto the
// route's reply. shed
// names a route whose query has no fallback ladder in the 503 (and the
// server.<shed>_degraded_unavailable counter) it answers while the
// workload's breaker is open.
type job struct {
	span, shed, dataset  string
	query                mint.Query
	reply                func(*mint.Graph, mint.Result) any
	explain, returnTrace bool
}

// serve runs a job: validate → checkout → workload counter → breaker
// Acquire → span → mint.Run → Record → reply. A query with a fallback
// ladder answers from the degraded path when the breaker is open or the
// exact engine failed; any other query sheds with 503 while the breaker
// cools down, and a failed run is served only when it is loudly
// truncated (a worker panic mid-batch), never as a silently short
// answer.
func (s *Server) serve(w http.ResponseWriter, q *Admitted, j job) {
	mq, rt := j.query, q.Trace
	mq.Workers, mq.Chaos, mq.Obs, mq.TraceID = s.cfg.Workers, s.cfg.Chaos, s.obs, rt.TraceID()
	if err := mq.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	g, release, ok := s.checkout(w, q.Ctx, j.dataset)
	if !ok {
		return
	}
	defer release()
	motifs := mq.Motifs
	if mq.Motif != nil {
		motifs = []*mint.Motif{mq.Motif}
	}
	for _, m := range motifs {
		s.obs.Counter(obs.Labeled("server.workload.requests", "dataset", j.dataset, "motif", m.Name)).Add(1)
	}
	key := workloadKey(j.dataset, mq)
	decision := s.brk.Acquire(key)
	bsp := rt.Begin("breaker.decision", rt.RootID())
	bsp.Set("workload", key)
	bsp.Set("decision", decision.String())
	bsp.End()
	var res mint.Result
	var err error
	if decision != Degrade {
		msp := rt.Begin(j.span, rt.RootID())
		if rt != nil {
			mq.Trace = obs.NewTracer(128)
		}
		res, err = mint.Run(q.Ctx, g, mq)
		msp.Set("engine", res.Engine)
		if len(res.Kernels) > 0 {
			// The route, for "explain": motifs a closed-form star
			// kernel answered instead of the trie executor.
			msp.Set("kernels", strings.Join(res.Kernels, ","))
		}
		msp.End()
		rt.ImportTracer(mq.Trace, msp.ID())
		// A panic, injected fault or poisoned chunk is breaker evidence
		// even when the estimator still salvaged an answer.
		s.brk.Record(key, err == nil && res.StopReason != mint.StopFaultInjected && len(res.Supervised.Poisoned) == 0)
		if err != nil && mq.Fallback != nil {
			s.obs.Counter("server.exact_failed").Add(1)
		}
	}
	unavailable := func(msg string) {
		WriteError(w, http.StatusServiceUnavailable, msg, RetryAfterSeconds(s.front.RetryAfter()))
	}
	switch {
	case decision != Degrade && (err == nil || (res.Truncated && mq.Fallback == nil)):
		// Exact, or loudly truncated: serve it.
	case mq.Fallback == nil && decision == Degrade:
		s.obs.Counter("server." + j.shed + "_degraded_unavailable").Add(1)
		unavailable("workload breaker open and " + j.shed + " has no degraded mode")
		return
	case mq.Fallback == nil:
		unavailable(err.Error())
		return
	default:
		// The degraded path: the ladder with one checkpoint quantum of
		// exact work on one worker and no chaos — enough to answer tiny
		// workloads exactly, cheap enough to not matter when it
		// truncates — so the answer comes from PRESTO (or, root-windowed,
		// is the exact partial lower bound).
		s.obs.Counter("server.degraded_served").Add(1)
		sp := rt.Begin("mine.degraded", rt.RootID())
		mq.Budget = runctl.Budget{MaxNodes: runctl.CheckInterval}
		mq.Workers, mq.Chaos, mq.Trace = 1, nil, nil
		res, err = mint.Run(q.Ctx, g, mq)
		sp.Set("engine", res.Engine)
		sp.End()
		if err != nil {
			s.obs.Counter("server.degraded_failed").Add(1)
			unavailable("degraded path failed: " + err.Error())
			return
		}
	}
	s.front.Reply(w, q, j.reply(g, res), j.explain, j.returnTrace)
}

// countResponse maps a count run — single, degraded, supervised or
// batch — onto the wire contract.
func countResponse(res mint.Result) *CountResponse {
	out := &CountResponse{
		Count:        res.Count,
		Exact:        res.Engine == mint.EngineExact,
		Degraded:     res.Engine == mint.EnginePresto,
		Engine:       res.Engine,
		ExactPartial: res.Matches,
	}
	if res.Engine == mint.EnginePartial {
		out.Truncated = true
		out.StopReason = res.StopReason.String()
	}
	for _, pm := range res.Batch.PerMotif {
		e := MotifCountEntry{Motif: pm.Motif.Name, Spec: pm.Motif.String(), Count: pm.Matches, Truncated: pm.Truncated}
		if pm.Truncated {
			e.StopReason = pm.StopReason.String()
		}
		out.PerMotif = append(out.PerMotif, e)
	}
	return out
}

// Handlers ---------------------------------------------------------------

// handleCount serves the three count shapes. A single motif runs the
// fallback ladder. A batch (motifs / motif_specs) is ONE co-mined run:
// there is no estimator for a motif set, so it is exact-or-loud. A
// supervised count checkpoints so a drain (or crash) mid-request leaves
// resumable evidence; the checkpoint outlives the request only when the
// reply names it, on a truncated run.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req CountRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	q, ok := s.front.Prelude(w, r, "count", req.Priority, req.TimeoutMS,
		runctl.Budget{MaxMatches: req.MaxMatches, MaxNodes: req.MaxNodes})
	if !ok {
		return
	}
	defer q.Done()
	j := job{span: "mine", dataset: req.Dataset, explain: req.Explain, returnTrace: req.ReturnTrace,
		reply: func(_ *mint.Graph, res mint.Result) any { return countResponse(res) },
		query: mint.Query{Roots: rootWindowFor(req.RootWindow), Budget: q.Full}}
	batch := len(req.Motifs) > 0 || len(req.MotifSpecs) > 0
	var err error
	if batch {
		j.span, j.shed = "mine.batch", "batch"
		j.query.Motifs, err = batchMotifs(&req)
	}
	if err == nil && (!batch || req.Motif != "" || req.MotifSpec != "") {
		j.query.Motif, err = motifFor("custom", req.Motif, req.MotifSpec, Delta(req.DeltaSeconds))
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	switch {
	case req.Supervised && s.cfg.CheckpointDir == "":
		WriteError(w, http.StatusBadRequest, "supervised requests need a server checkpoint dir (-checkpoint-dir)", 0)
		return
	case req.Supervised:
		path := filepath.Join(s.cfg.CheckpointDir,
			fmt.Sprintf("req-%d-%s.ckpt", s.reqSeq.Add(1), sanitizeKey(workloadKey(req.Dataset, j.query))))
		j.span, j.shed = "mine.supervised", "supervised"
		j.query.Supervisor = &mint.SupervisorConfig{CheckpointPath: path}
		j.reply = func(_ *mint.Graph, res mint.Result) any {
			out := countResponse(res)
			if res.Truncated {
				out.Checkpoint = path
			} else if err := os.Remove(path); err != nil {
				s.obs.Counter("server.checkpoint_remove_failed").Add(1)
			}
			return out
		}
	case !batch:
		j.query.Fallback = &mint.ApproxConfig{}
	}
	s.serve(w, q, j)
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	var req EnumerateRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if req.Limit <= 0 {
		WriteError(w, http.StatusBadRequest, "limit must be positive", 0)
		return
	}
	req.Limit = min(req.Limit, s.cfg.EnumerateMaxLimit)
	offset := int64(0)
	if req.PageToken != "" {
		var err error
		offset, err = strconv.ParseInt(req.PageToken, 10, 64)
		if err != nil || offset < 0 {
			WriteError(w, http.StatusBadRequest, "malformed page_token", 0)
			return
		}
	}
	q, ok := s.front.Prelude(w, r, "enumerate", req.Priority, req.TimeoutMS, runctl.Budget{})
	if !ok {
		return
	}
	defer q.Done()
	m, err := motifFor("custom", req.Motif, req.MotifSpec, Delta(req.DeltaSeconds))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	// Pagination rides the deterministic chronological search order: the
	// budget stops the walk at offset+limit matches, and the first
	// offset are skipped as they stream by.
	b := q.Full
	b.MaxMatches = offset + int64(req.Limit)
	matches := make([][]int32, 0, req.Limit)
	var seen int64
	visit := func(edges []int32) {
		if seen++; seen > offset && len(matches) < req.Limit {
			matches = append(matches, append([]int32(nil), edges...))
		}
	}
	s.serve(w, q, job{span: "mine.enumerate", shed: "enumerate", dataset: req.Dataset, explain: req.Explain, returnTrace: req.ReturnTrace,
		query: mint.Query{Motif: m, Roots: rootWindowFor(req.RootWindow), Visit: visit, Budget: b},
		reply: func(_ *mint.Graph, res mint.Result) any {
			out := &EnumerateResponse{Matches: matches}
			switch {
			case res.Truncated && res.StopReason == mint.StopMatchBudget:
				// The page filled: not a truncation, just the next page.
				out.NextPageToken = strconv.FormatInt(offset+int64(len(matches)), 10)
			case res.Truncated:
				out.Truncated = true
				out.StopReason = res.StopReason.String()
			}
			return out
		},
	})
}

// handleProfile serves the M1–M4 profile as the batch query over the
// evaluation motifs plus the density column, so a worker's profile and
// a coordinator's (a worker batch per shard) agree.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	q, ok := s.front.Prelude(w, r, "profile", req.Priority, req.TimeoutMS, runctl.Budget{})
	if !ok {
		return
	}
	defer q.Done()
	s.serve(w, q, job{span: "mine.profile", shed: "profile", dataset: req.Dataset, explain: req.Explain,
		query: mint.Query{Motifs: mint.EvaluationMotifs(Delta(req.DeltaSeconds)), Budget: q.Full},
		reply: func(g *mint.Graph, res mint.Result) any {
			out := &ProfileResponse{}
			for _, c := range mint.ProfileOf(g, res) {
				e := ProfileEntry{Motif: c.Motif.Name, Spec: c.Motif.String(), Count: c.Count, Density: c.Density, Truncated: c.Truncated}
				if c.Truncated {
					e.StopReason = c.StopReason.String()
				}
				out.Profile = append(out.Profile, e)
			}
			return out
		},
	})
}

// handleDatasetInfo reports the shape, time extent, and identity
// fingerprint of a served dataset. A scatter-gather coordinator calls it
// once per worker before fanning out: the span feeds the shard plan and
// the fingerprints must agree before any merge (two workers serving
// different data under one name must fail the fan-out loudly, not sum
// into a silently wrong count). It skips admission — it mines nothing
// and must stay answerable under load so coordinators can plan.
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	var req DatasetInfoRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	ctx, cleanup := s.front.RequestCtx(r)
	defer cleanup()
	g, release, ok := s.checkout(w, ctx, req.Dataset)
	if !ok {
		return
	}
	defer release()
	out := DatasetInfoResponse{
		Dataset:     req.Dataset,
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		Fingerprint: s.fingerprintOf(req.Dataset, g),
		Live:        s.cfg.Ingest.Enabled() && req.Dataset == s.cfg.Ingest.Name(),
	}
	if n := g.NumEdges(); n > 0 {
		out.MinTS = int64(g.Edges[0].Time)
		out.MaxTS = int64(g.Edges[n-1].Time)
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleReadyz reports the worker ready once its datasets can be served
// (the draining check runs first, in Front.HandleReadyz).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"status":   "ready",
		"queued":   s.front.adm.queued.Load(),
		"datasets": s.data.Names(),
	}
	if s.cfg.Ingest.Enabled() {
		// A restarting ingest server is not ready until WAL replay has
		// rebuilt the live graph: flipping ready earlier would route
		// traffic to a dataset that is still missing durable edges.
		if s.liveReplaying.Load() {
			body := map[string]any{"status": "replaying"}
			// Replay progress: how far through the WAL the rebuild is, so
			// an operator watching readyz can tell stuck from slow.
			if p, ok := s.replayProg.Load().(edgelog.ReplayProgress); ok {
				body["progress"] = p
			}
			WriteJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		st, err := s.liveStream()
		if err != nil {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "ingest_failed", "error": err.Error(),
			})
			return
		}
		if _, following := s.followingSource(); following {
			// A follower is not ready until fingerprint-verified catch-up:
			// routing reads to a syncing standby would serve answers from a
			// graph that is behind the primary's acked history.
			f := s.currentFollower()
			if f == nil || !f.CaughtUp() {
				body := map[string]any{"status": "syncing"}
				if f != nil {
					body["replication"] = f.Status()
				}
				WriteJSON(w, http.StatusServiceUnavailable, body)
				return
			}
			out["replication"] = f.Status()
		}
		info := st.Info()
		s.liveMu.Lock()
		rec := s.liveRec
		s.liveMu.Unlock()
		out["ingest"] = map[string]any{
			"dataset":          s.cfg.Ingest.Name(),
			"seq":              info.Seq,
			"edges":            info.Edges,
			"segments":         info.Segments,
			"replayed_records": rec.Records,
			// replay_truncated means a crash tore the WAL tail and replay
			// recovered the longest valid prefix — loud, by contract.
			"replay_truncated": rec.Truncated,
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// sanitizeKey makes a workload key filesystem-safe for checkpoint names.
func sanitizeKey(key string) string {
	out := make([]rune, 0, len(key))
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
