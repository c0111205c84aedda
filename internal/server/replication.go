package server

// Replication endpoints and follower lifecycle: the serving-layer face
// of internal/replica. A primary ships durable WAL records out of its
// edgelog via POST /v1/replication/pull (long-poll); a follower (mintd
// -follow=<primary>) applies them into its own WAL and serves reads
// only after fingerprint-verified catch-up; POST /v1/promote seals the
// follower's log under a new epoch and flips it to primary. Epoch
// fencing: any pull carrying a newer epoch than ours proves we were
// deposed — we fence (refuse writes AND shipping) rather than risk
// split-brain double counts.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/replica"
)

// maxPullWait caps one long-poll hold so a dead follower's request
// cannot pin an inflight slot across a drain window.
const maxPullWait = 30 * time.Second

// maxPullBatch caps records per pull response regardless of request.
const maxPullBatch = 4096

// PromoteResponse is the POST /v1/promote body.
type PromoteResponse struct {
	Status  string `json:"status"` // "promoted" | "already_primary"
	Dataset string `json:"dataset"`
	Epoch   uint64 `json:"epoch"`
}

// startFollower wires and launches the pull loop once startup replay
// has the local stream live. Called from openLive.
func (s *Server) startFollower(st *mint.Stream) {
	f, err := replica.New(replica.Config{
		Source:  s.cfg.Ingest.Follow,
		Dataset: s.cfg.Ingest.Name(),
		Stream:  st,
		Obs:     s.obs,
	})
	if err != nil {
		s.liveMu.Lock()
		s.liveErr = err
		s.liveMu.Unlock()
		s.obs.Counter("server.replication.follower_start_failed").Add(1)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	s.replMu.Lock()
	s.follower, s.followerStop, s.followerDone = f, cancel, done
	s.replMu.Unlock()
	go func() {
		defer close(done)
		// Terminal outcomes (diverged, stale source) live on in
		// f.Status(); readyz stays unready and the status endpoint says
		// why.
		_ = f.Run(ctx)
	}()
}

// followingSource returns the primary URL while this node is an
// unpromoted follower.
func (s *Server) followingSource() (string, bool) {
	if s.cfg.Ingest.Follow == "" {
		return "", false
	}
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.promoted {
		return "", false
	}
	return s.cfg.Ingest.Follow, true
}

// currentFollower returns the follower loop handle, if any.
func (s *Server) currentFollower() *replica.Follower {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.follower
}

// gateWrites refuses mutating live-dataset requests on nodes that must
// not accept them: unpromoted followers (writes go to the primary) and
// fenced ex-primaries (a newer epoch exists; acking anything here would
// be a split-brain double count). Returns false after writing the error.
func (s *Server) gateWrites(w http.ResponseWriter) bool {
	if s.fenced.Load() {
		WriteError(w, http.StatusServiceUnavailable,
			"this node was deposed (a newer replication epoch exists); refusing writes", 0)
		return false
	}
	if src, ok := s.followingSource(); ok {
		WriteError(w, http.StatusConflict,
			"this node is a follower of "+src+"; send writes to the primary", 0)
		return false
	}
	return true
}

// handleReplicationPull ships durable WAL records. The request's epoch
// is the fencing probe: newer than ours means we were deposed.
func (s *Server) handleReplicationPull(w http.ResponseWriter, r *http.Request) {
	var req replica.PullRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if req.Dataset != "" && req.Dataset != s.cfg.Ingest.Name() {
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("dataset %q is not this node's live dataset (%q)", req.Dataset, s.cfg.Ingest.Name()), 0)
		return
	}
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	epoch := st.Epoch()
	if req.Epoch > epoch {
		if !s.fenced.Swap(true) {
			s.obs.Counter("server.replication.fenced").Add(1)
		}
		WriteError(w, http.StatusConflict,
			fmt.Sprintf("epoch fence: pull carries epoch %d, this node is at %d — deposed, refusing to ship", req.Epoch, epoch), 0)
		return
	}
	if s.fenced.Load() {
		WriteError(w, http.StatusConflict,
			"this node was deposed (a newer replication epoch exists); not shipping records", 0)
		return
	}

	ctx, cleanup := s.front.RequestCtx(r)
	defer cleanup()
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > maxPullWait {
		wait = maxPullWait
	}
	deadline := time.Now().Add(wait)
	for st.Info().Seq < req.FromSeq && wait > 0 && time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			WriteError(w, http.StatusServiceUnavailable, "pull cancelled", 0)
			return
		case <-time.After(50 * time.Millisecond):
		}
	}

	max := req.Max
	if max <= 0 || max > maxPullBatch {
		max = maxPullBatch
	}
	info := st.Info()
	out := replica.PullResponse{
		Dataset:     s.cfg.Ingest.Name(),
		Seq:         info.Seq,
		Fingerprint: info.Fingerprint,
		Epoch:       info.Epoch,
	}
	recs, tail, err := st.ReadRecords(req.FromSeq, max)
	switch {
	case errors.Is(err, edgelog.ErrCompacted):
		out.Compacted = true
	case err != nil:
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(5*time.Second))
		return
	default:
		out.TailBytes = tail
		out.Records = make([]replica.WireRecord, len(recs))
		for i, rec := range recs {
			out.Records[i] = replica.ToWire(rec)
		}
		s.obs.Counter("server.replication.shipped_records").Add(int64(len(recs)))
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleReplicationSnapshot ships the on-disk snapshot for a follower
// whose position was compacted away.
func (s *Server) handleReplicationSnapshot(w http.ResponseWriter, r *http.Request) {
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	if s.fenced.Load() {
		WriteError(w, http.StatusConflict,
			"this node was deposed (a newer replication epoch exists); not shipping a snapshot", 0)
		return
	}
	snap, err := st.LoadSnapshot()
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(5*time.Second))
		return
	}
	if snap == nil {
		WriteError(w, http.StatusNotFound, "no snapshot exists yet", 0)
		return
	}
	WriteJSON(w, http.StatusOK, replica.SnapshotResponse{Dataset: s.cfg.Ingest.Name(), Snapshot: snap})
}

// handleReplicationStatus reports this node's replication view: a
// follower answers with its sync state, a primary with its position.
func (s *Server) handleReplicationStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	if _, following := s.followingSource(); following {
		if f := s.currentFollower(); f != nil {
			WriteJSON(w, http.StatusOK, f.Status())
			return
		}
	}
	info := st.Info()
	state := "primary"
	if s.fenced.Load() {
		state = "fenced"
	}
	WriteJSON(w, http.StatusOK, replica.Status{
		Dataset:     s.cfg.Ingest.Name(),
		Role:        "primary",
		State:       state,
		Epoch:       info.Epoch,
		AppliedSeq:  info.Seq,
		Fingerprint: info.Fingerprint,
		CaughtUp:    true,
		Fenced:      s.fenced.Load(),
	})
}

// handlePromote seals a follower's log under a new epoch and flips it
// to primary. Refuses diverged followers always; refuses laggy ones
// unless ?force=1 explicitly accepts losing the unreplicated tail.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	st, ok := s.liveOr(w)
	if !ok {
		return
	}
	if s.fenced.Load() {
		WriteError(w, http.StatusConflict,
			"this node was deposed (a newer replication epoch exists); it cannot be promoted", 0)
		return
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()

	s.replMu.Lock()
	alreadyPrimary := s.cfg.Ingest.Follow == "" || s.promoted
	f, stop, done := s.follower, s.followerStop, s.followerDone
	s.replMu.Unlock()
	if alreadyPrimary {
		WriteJSON(w, http.StatusOK, PromoteResponse{
			Status: "already_primary", Dataset: s.cfg.Ingest.Name(), Epoch: st.Epoch(),
		})
		return
	}

	force := r.URL.Query().Get("force") == "1"
	if f != nil {
		stat := f.Status()
		if stat.State == replica.StateDiverged {
			// Force never overrides divergence: a diverged follower's
			// graph is not a lagging copy, it is a different history.
			WriteError(w, http.StatusConflict,
				"refusing to promote a diverged follower: "+stat.LastError, 0)
			return
		}
		if !stat.CaughtUp && stat.State != replica.StateStaleSource && !force {
			WriteError(w, http.StatusConflict, fmt.Sprintf(
				"follower is %s (lag %d records, %d bytes); promote with ?force=1 to accept losing the unreplicated tail",
				stat.State, stat.LagRecords, stat.LagBytes), 0)
			return
		}
	}
	if stop != nil {
		stop()
		<-done
	}

	epoch := st.Epoch()
	if err := st.BumpEpoch(epoch + 1); err != nil {
		WriteError(w, http.StatusServiceUnavailable, "promotion failed to seal the log: "+err.Error(), 0)
		return
	}
	ctx, cleanup := s.front.RequestCtx(r)
	defer cleanup()
	if err := st.Refresh(ctx); err != nil {
		// Standing counts stay loudly stale; the promotion itself stands.
		s.obs.Counter("server.promote_refresh_failed").Add(1)
	}
	s.replMu.Lock()
	s.promoted = true
	s.replMu.Unlock()
	s.obs.Counter("server.promotions").Add(1)
	WriteJSON(w, http.StatusOK, PromoteResponse{
		Status: "promoted", Dataset: s.cfg.Ingest.Name(), Epoch: epoch + 1,
	})
}
