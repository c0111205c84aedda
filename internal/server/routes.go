package server

// The four query routes, written once for both mintd roles: count,
// enumerate, profile and datasetinfo. Each route decodes, admits,
// resolves and validates the motif, then hands the request to the
// role's Executor and replies. The worker executes on its registry and
// engines (handlers.go); the coordinator plans, fans out over its
// shards and merges (package gather). Search trees rooted at different
// edges are independent tasks, so both steps answer the same contract.

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"mint"
	"mint/internal/runctl"
)

// Executor is one role's step between a validated request and its
// reply. Every refusal it returns is a *StatusError; any other error
// answers 503.
type Executor interface {
	// Count answers a count; mq holds the resolved motif or motif set,
	// the root window and the admitted budget. edges is the size of the
	// data counted, the profile's density denominator.
	Count(q *Admitted, req *CountRequest, mq mint.Query) (out *CountResponse, edges int, err error)
	// Enumerate answers one page of m's matches; req.Limit is positive
	// and clamped to the role's cap.
	Enumerate(q *Admitted, req *EnumerateRequest, m *mint.Motif) (*EnumerateResponse, error)
	// DatasetInfo describes a served dataset. It runs without admission:
	// it mines nothing and must stay answerable under load so
	// coordinators can plan.
	DatasetInfo(ctx context.Context, dataset string) (*DatasetInfoResponse, error)
}

// StatusError is a non-200 answer of either role, and a shard's
// non-200 answer as the coordinator decodes it, so a shard's 400 passes
// through unchanged. Error prefixes Msg with the status.
type StatusError struct {
	Status int
	Msg    string
	// RetryAfter is the backoff hint in seconds (0 = none); a 503
	// without one goes out with the front end's (Front.RetryAfter).
	RetryAfter int
}

func (e *StatusError) Error() string { return fmt.Sprintf("status %d: %s", e.Status, e.Msg) }

func badRequest(err error) *StatusError {
	return &StatusError{Status: http.StatusBadRequest, Msg: err.Error()}
}

// fail sends err out: a *StatusError as given, anything else as a 503.
func (f *Front) fail(w http.ResponseWriter, err error) {
	se := &StatusError{Status: http.StatusServiceUnavailable, Msg: err.Error()}
	errors.As(err, &se)
	ra := se.RetryAfter
	if se.Status == http.StatusServiceUnavailable && ra == 0 {
		ra = RetryAfterSeconds(f.RetryAfter())
	}
	WriteError(w, se.Status, se.Msg, ra)
}

// answer replies with out, or fails with err.
func (f *Front) answer(w http.ResponseWriter, q *Admitted, out any, err error, explain, returnTrace bool) {
	if err != nil {
		f.fail(w, err)
		return
	}
	f.reply(w, q, out, explain, returnTrace)
}

// HandleQueries mounts the query routes over ex; enumerateMaxLimit caps
// one enumerate page.
func (f *Front) HandleQueries(ex Executor, enumerateMaxLimit int) {
	f.Handle("POST /v1/count", "count", func(w http.ResponseWriter, r *http.Request) {
		var req CountRequest
		if !f.Decode(w, r, &req) {
			return
		}
		q, ok := f.prelude(w, r, "count", req.Priority, req.TimeoutMS,
			runctl.Budget{MaxMatches: req.MaxMatches, MaxNodes: req.MaxNodes})
		if !ok {
			return
		}
		defer q.Done()
		out, _, err := count(ex, q, &req)
		f.answer(w, q, out, err, req.Explain, req.ReturnTrace)
	})
	f.Handle("POST /v1/enumerate", "enumerate", func(w http.ResponseWriter, r *http.Request) {
		var req EnumerateRequest
		if !f.Decode(w, r, &req) {
			return
		}
		if req.Limit <= 0 {
			WriteError(w, http.StatusBadRequest, "limit must be positive", 0)
			return
		}
		req.Limit = min(req.Limit, enumerateMaxLimit)
		q, ok := f.prelude(w, r, "enumerate", req.Priority, req.TimeoutMS, runctl.Budget{})
		if !ok {
			return
		}
		defer q.Done()
		var out *EnumerateResponse
		m, err := motifFor("custom", req.Motif, req.MotifSpec, Delta(req.DeltaSeconds))
		if err != nil {
			err = badRequest(err)
		} else {
			out, err = ex.Enumerate(q, &req, m)
		}
		f.answer(w, q, out, err, req.Explain, req.ReturnTrace)
	})
	// The profile is the batch count of M1–M4 plus a density column over
	// the edges the executor counted, so a worker's profile and a
	// coordinator's agree.
	f.Handle("POST /v1/profile", "profile", func(w http.ResponseWriter, r *http.Request) {
		var req ProfileRequest
		if !f.Decode(w, r, &req) {
			return
		}
		q, ok := f.prelude(w, r, "profile", req.Priority, req.TimeoutMS, runctl.Budget{})
		if !ok {
			return
		}
		defer q.Done()
		res, edges, err := count(ex, q, &CountRequest{Dataset: req.Dataset, Motifs: []string{"M1", "M2", "M3", "M4"},
			DeltaSeconds: req.DeltaSeconds, TimeoutMS: req.TimeoutMS, Priority: req.Priority})
		var out *ProfileResponse
		if err == nil {
			out = &ProfileResponse{Partial: res.Partial}
			perK := 1000.0 / float64(max(1, edges))
			for _, e := range res.PerMotif {
				out.Profile = append(out.Profile, ProfileEntry{Motif: e.Motif, Spec: e.Spec, Count: e.Count,
					Density: float64(e.Count) * perK, Truncated: e.Truncated, StopReason: e.StopReason})
			}
		}
		f.answer(w, q, out, err, req.Explain, false)
	})
	f.Handle("POST /v1/datasetinfo", "datasetinfo", func(w http.ResponseWriter, r *http.Request) {
		var req DatasetInfoRequest
		if !f.Decode(w, r, &req) {
			return
		}
		ctx, cleanup := f.RequestCtx(r)
		defer cleanup()
		out, err := ex.DatasetInfo(ctx, req.Dataset)
		if err != nil {
			f.fail(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, out)
	})
}

// count resolves a count request's motif or motif set at its δ,
// validates the query (400 on a bad motif, spec or batch+motif
// conflict) and runs the executor's count.
func count(ex Executor, q *Admitted, req *CountRequest) (*CountResponse, int, error) {
	mq := mint.Query{Roots: rootWindowFor(req.RootWindow), Budget: q.Full}
	batch := len(req.Motifs) > 0 || len(req.MotifSpecs) > 0
	var err error
	if batch {
		mq.Motifs, err = batchMotifs(req)
	}
	if err == nil && (!batch || req.Motif != "" || req.MotifSpec != "") {
		mq.Motif, err = motifFor("custom", req.Motif, req.MotifSpec, Delta(req.DeltaSeconds))
	}
	if err == nil {
		err = mq.Validate()
	}
	if err != nil {
		return nil, 0, badRequest(err)
	}
	return ex.Count(q, req, mq)
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

// rootWindowFor maps the wire-level root window onto the engine's.
func rootWindowFor(tw *TimeWindow) *mint.RootWindow {
	if tw == nil {
		return nil
	}
	return &mint.RootWindow{Start: mint.Timestamp(tw.StartTS), End: mint.Timestamp(tw.EndTS)}
}
