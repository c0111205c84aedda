// Package replica implements WAL shipping between mintd processes: a
// hot-standby follower pulls framed WAL records from its primary over
// the existing HTTP/JSON substrate (long-poll), appends them verbatim to
// its OWN edgelog — so the follower is itself crash-safe and re-follows
// after SIGKILL from its local log position — and continuously replays
// them into a live mint.Stream.
//
// Catch-up is verified, never assumed: whenever the follower's applied
// sequence matches the primary's, the two streams' edge fingerprints are
// compared, and only a match flips the follower to caught-up. A mismatch
// at equal sequence means the histories diverged — the follower halts in
// a loud terminal `diverged` state rather than serve a guessed graph.
//
// Epochs fence deposed primaries: every promotion appends a durable
// epoch record that ships like any other, every pull request carries the
// follower's current epoch, and a source that sees a NEWER epoch than
// its own knows it was deposed — it must fence itself and refuse both
// appends and shipping. A follower whose pull is rejected for carrying
// the newer epoch (409) stops following that source terminally
// (`stale_source`): the old primary has nothing trustworthy to ship.
package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Follower states, in Status.State.
const (
	StateSyncing     = "syncing"      // pulling, not yet fingerprint-verified
	StateCaughtUp    = "caught_up"    // applied seq == source seq, fingerprints match
	StateDiverged    = "diverged"     // fingerprint mismatch at equal seq — terminal
	StateStaleSource = "stale_source" // source's epoch is older than ours — terminal
	StateStopped     = "stopped"      // Run returned (ctx cancel or promotion)
)

// Wire shapes ------------------------------------------------------------

// PullRequest asks a source for WAL records from FromSeq on. Epoch is
// the puller's current epoch: a source seeing an epoch newer than its
// own has been deposed and must fence itself (409 to this request).
type PullRequest struct {
	Dataset string `json:"dataset"`
	FromSeq uint64 `json:"from_seq"`
	Max     int    `json:"max,omitempty"`
	Epoch   uint64 `json:"epoch"`
	// WaitMS long-polls: a source with nothing at FromSeq holds the
	// request up to this long waiting for new records.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// WireRecord is one WAL record in transit.
type WireRecord struct {
	Seq       uint64              `json:"seq"`
	Kind      uint8               `json:"kind"`
	ClientID  string              `json:"client_id,omitempty"`
	ClientSeq uint64              `json:"client_seq,omitempty"`
	Edges     []temporal.Edge     `json:"edges,omitempty"`
	Epoch     uint64              `json:"epoch,omitempty"`
	Standing  *edgelog.StandingOp `json:"standing,omitempty"`
}

// ToWire converts a log record for shipping.
func ToWire(r edgelog.Record) WireRecord {
	return WireRecord{Seq: r.Seq, Kind: r.Kind, ClientID: r.ClientID,
		ClientSeq: r.ClientSeq, Edges: r.Edges, Epoch: r.Epoch, Standing: r.Standing}
}

// Record converts back to a log record.
func (w WireRecord) Record() edgelog.Record {
	return edgelog.Record{Seq: w.Seq, Kind: w.Kind, ClientID: w.ClientID,
		ClientSeq: w.ClientSeq, Edges: w.Edges, Epoch: w.Epoch, Standing: w.Standing}
}

// PullResponse carries shipped records plus the source's position, so
// the puller can compute lag and verify catch-up. Seq/Fingerprint are
// the source's applied position at response time; records never extend
// past it.
type PullResponse struct {
	Dataset     string       `json:"dataset"`
	Records     []WireRecord `json:"records"`
	Seq         uint64       `json:"seq"`
	Fingerprint string       `json:"fingerprint"`
	Epoch       uint64       `json:"epoch"`
	// TailBytes is the durable bytes the source holds beyond the last
	// record in this response — the byte lag.
	TailBytes int64 `json:"tail_bytes"`
	// Compacted: FromSeq predates the source's oldest retained segment;
	// the puller must bootstrap from the source's snapshot.
	Compacted bool `json:"compacted,omitempty"`
}

// SnapshotResponse ships the source's on-disk snapshot for bootstrap.
type SnapshotResponse struct {
	Dataset  string            `json:"dataset"`
	Snapshot *edgelog.Snapshot `json:"snapshot"`
}

// Status is the GET /v1/replication/status body (for a primary, only a
// subset of fields is meaningful).
type Status struct {
	Dataset     string `json:"dataset"`
	Role        string `json:"role"` // "primary" | "follower"
	State       string `json:"state"`
	Source      string `json:"source,omitempty"`
	Epoch       uint64 `json:"epoch"`
	AppliedSeq  uint64 `json:"applied_seq"`
	SourceSeq   uint64 `json:"source_seq,omitempty"`
	LagRecords  int64  `json:"lag_records"`
	LagBytes    int64  `json:"lag_bytes"`
	Fingerprint string `json:"fingerprint"`
	CaughtUp    bool   `json:"caught_up"`
	Fenced      bool   `json:"fenced,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// Config ------------------------------------------------------------------

// Config wires a Follower.
type Config struct {
	// Source is the primary's base URL (e.g. "http://127.0.0.1:8080").
	Source string
	// Dataset is the live dataset name both sides serve.
	Dataset string
	// Stream is the follower's own durable stream (its own WAL dir).
	Stream *mint.Stream
	// Client is the HTTP client ("" timeouts are fine: long-polls bound
	// themselves via WaitMS; nil means a dedicated default client).
	Client *http.Client
	// MaxBatch caps records per pull (0 = 512).
	MaxBatch int
	// WaitMS is the long-poll hold (0 = 10s).
	WaitMS int64
	// RetryBase/RetryCap shape the pull retry backoff
	// (runctl.Backoff; zeros = 100ms/5s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// BreakerThreshold consecutive pull failures open the per-connection
	// breaker for BreakerCooldown (0s = threshold 5, cooldown 3s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Obs receives replica.* instruments (nil-safe).
	Obs *obs.Registry
	// Logf, when non-nil, receives loud one-line progress/terminal logs.
	Logf func(format string, args ...any)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Follower ----------------------------------------------------------------

// Follower pulls WAL records from a source into its own stream. Create
// with New, drive with Run (blocking), inspect with Status.
type Follower struct {
	cfg    Config
	client *http.Client

	mu        sync.Mutex
	state     string
	sourceSeq uint64
	lagBytes  int64
	lastErr   string
}

// New validates cfg and builds a follower (it does not start pulling).
func New(cfg Config) (*Follower, error) {
	if cfg.Source == "" {
		return nil, errors.New("replica: follower needs a source URL")
	}
	if cfg.Stream == nil {
		return nil, errors.New("replica: follower needs a stream")
	}
	cfg.Source = strings.TrimRight(cfg.Source, "/")
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 512
	}
	if cfg.WaitMS <= 0 {
		cfg.WaitMS = 10_000
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 5 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 3 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	return &Follower{cfg: cfg, client: client, state: StateSyncing}, nil
}

// Status reports the follower's current replication state.
func (f *Follower) Status() Status {
	info := f.cfg.Stream.Info()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Dataset:     f.cfg.Dataset,
		Role:        "follower",
		State:       f.state,
		Source:      f.cfg.Source,
		Epoch:       info.Epoch,
		AppliedSeq:  info.Seq,
		SourceSeq:   f.sourceSeq,
		LagBytes:    f.lagBytes,
		Fingerprint: info.Fingerprint,
		CaughtUp:    f.state == StateCaughtUp,
		LastError:   f.lastErr,
	}
	if f.sourceSeq > info.Seq {
		st.LagRecords = int64(f.sourceSeq - info.Seq)
	}
	return st
}

// CaughtUp reports whether the follower is fingerprint-verified current.
func (f *Follower) CaughtUp() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state == StateCaughtUp
}

// Terminal reports whether the follower halted (diverged/stale source).
func (f *Follower) Terminal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state == StateDiverged || f.state == StateStaleSource
}

func (f *Follower) setState(state, errDetail string) {
	f.mu.Lock()
	prev := f.state
	f.state = state
	if errDetail != "" {
		f.lastErr = errDetail
	}
	f.mu.Unlock()
	if prev != state {
		f.cfg.Obs.Counter("replica.state." + state).Add(1)
		if state == StateCaughtUp {
			f.cfg.logf("replica: %s caught up with %s", f.cfg.Dataset, f.cfg.Source)
		}
		if state == StateDiverged || state == StateStaleSource {
			f.cfg.logf("replica: %s HALTED (%s): %s", f.cfg.Dataset, state, errDetail)
		}
	}
}

// errTerminal wraps failures that retrying cannot fix.
type errTerminal struct {
	state string
	err   error
}

func (e *errTerminal) Error() string { return e.err.Error() }

// Run pulls until ctx is cancelled or a terminal condition halts the
// follower. It always returns the reason it stopped (ctx.Err() for a
// clean stop).
func (f *Follower) Run(ctx context.Context) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			f.setState(StateStopped, "")
			return err
		}
		progressed, err := f.pullOnce(ctx)
		if err != nil {
			var term *errTerminal
			if errors.As(err, &term) {
				f.setState(term.state, term.err.Error())
				return term.err
			}
			if ctx.Err() != nil {
				f.setState(StateStopped, "")
				return ctx.Err()
			}
			failures++
			f.mu.Lock()
			f.lastErr = err.Error()
			if f.state == StateCaughtUp {
				f.state = StateSyncing
			}
			f.mu.Unlock()
			f.cfg.Obs.Counter("replica.pull_errors").Add(1)
			delay := runctl.Backoff(failures-1, f.cfg.RetryBase, f.cfg.RetryCap)
			if failures >= f.cfg.BreakerThreshold {
				// Per-connection breaker: the source has failed several
				// pulls in a row; stop hammering it for a cooldown.
				delay = f.cfg.BreakerCooldown
				f.cfg.Obs.Counter("replica.breaker_open").Add(1)
			}
			select {
			case <-ctx.Done():
				f.setState(StateStopped, "")
				return ctx.Err()
			case <-time.After(delay):
			}
			continue
		}
		failures = 0
		_ = progressed
	}
}

// pullOnce performs one pull round-trip and applies what it got. The
// bool reports whether any records were applied.
func (f *Follower) pullOnce(ctx context.Context) (bool, error) {
	info := f.cfg.Stream.Info()
	req := PullRequest{
		Dataset: f.cfg.Dataset,
		FromSeq: info.Seq + 1,
		Max:     f.cfg.MaxBatch,
		Epoch:   info.Epoch,
		WaitMS:  f.cfg.WaitMS,
	}
	if !f.CaughtUp() {
		// While syncing, pull without the long-poll hold: a follower that
		// restarted already at the tip must get the empty at-tip response
		// NOW to fingerprint-verify catch-up, not after WaitMS expires.
		// The hold only exists to keep caught-up followers from busy-
		// polling, so it applies only once caught up.
		req.WaitMS = 0
	}
	resp, status, err := f.post(ctx, "/v1/replication/pull", req)
	if err != nil {
		return false, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusConflict:
		// The source refused our epoch: it is older than us (a deposed
		// primary). Nothing it ships can be trusted — halt loudly.
		return false, &errTerminal{state: StateStaleSource,
			err: fmt.Errorf("replica: source %s rejected pull with 409: it is behind our epoch %d", f.cfg.Source, info.Epoch)}
	default:
		return false, fmt.Errorf("replica: pull from %s: unexpected status %d", f.cfg.Source, status)
	}

	var pr PullResponse
	if err := json.Unmarshal(resp, &pr); err != nil {
		return false, fmt.Errorf("replica: decoding pull response: %w", err)
	}

	if pr.Compacted {
		if err := f.bootstrap(ctx); err != nil {
			return false, err
		}
		return true, nil
	}

	applied := 0
	for _, wr := range pr.Records {
		if err := f.cfg.Stream.ApplyReplicated(wr.Record()); err != nil {
			// A seq mismatch (or refused payload) means our history and
			// the source's no longer line up. Terminal.
			return applied > 0, &errTerminal{state: StateDiverged,
				err: fmt.Errorf("replica: applying record %d from %s: %w", wr.Seq, f.cfg.Source, err)}
		}
		applied++
	}
	if applied > 0 {
		f.cfg.Obs.Counter("replica.applied_records").Add(int64(applied))
	}

	cur := f.cfg.Stream.Info()
	f.mu.Lock()
	f.sourceSeq = pr.Seq
	f.lagBytes = pr.TailBytes
	f.mu.Unlock()
	f.cfg.Obs.Gauge("replica.lag_bytes").Set(pr.TailBytes)
	if pr.Seq >= cur.Seq {
		f.cfg.Obs.Gauge("replica.lag_records").Set(int64(pr.Seq - cur.Seq))
	}

	if pr.Seq == cur.Seq {
		// Position matches: the fingerprints must too. This is the
		// checkpoint-style verification that makes "caught up" a claim
		// about content, not just sequence numbers.
		if pr.Fingerprint != cur.Fingerprint {
			return applied > 0, &errTerminal{state: StateDiverged,
				err: fmt.Errorf("replica: fingerprint mismatch at seq %d: source %s has %s, local %s",
					cur.Seq, f.cfg.Source, pr.Fingerprint, cur.Fingerprint)}
		}
		if !f.CaughtUp() {
			// Fold standing counts once on the transition: replication
			// apply skips per-record integration, so restored queries
			// seed here.
			if err := f.cfg.Stream.Refresh(ctx); err != nil {
				return applied > 0, fmt.Errorf("replica: refreshing standing counts at catch-up: %w", err)
			}
		}
		f.setState(StateCaughtUp, "")
	} else {
		f.setState(StateSyncing, "")
	}
	return applied > 0, nil
}

// bootstrap installs the source's snapshot when our next record was
// compacted away at the source. Only an empty local log accepts this;
// anything else is divergence, surfaced by InstallSnapshot's refusal.
func (f *Follower) bootstrap(ctx context.Context) error {
	f.cfg.logf("replica: %s bootstrap: source %s compacted our position; installing snapshot", f.cfg.Dataset, f.cfg.Source)
	body, status, err := f.get(ctx, "/v1/replication/snapshot?dataset="+f.cfg.Dataset)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("replica: snapshot fetch from %s: unexpected status %d", f.cfg.Source, status)
	}
	var sr SnapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return fmt.Errorf("replica: decoding snapshot response: %w", err)
	}
	if sr.Snapshot == nil {
		return fmt.Errorf("replica: source %s reported compaction but has no snapshot", f.cfg.Source)
	}
	if err := f.cfg.Stream.InstallSnapshot(sr.Snapshot); err != nil {
		return &errTerminal{state: StateDiverged,
			err: fmt.Errorf("replica: installing snapshot from %s: %w", f.cfg.Source, err)}
	}
	f.cfg.Obs.Counter("replica.snapshot_bootstraps").Add(1)
	return nil
}

func (f *Follower) post(ctx context.Context, path string, body any) ([]byte, int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.cfg.Source+path, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return f.do(req)
}

func (f *Follower) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Source+path, nil)
	if err != nil {
		return nil, 0, err
	}
	return f.do(req)
}

func (f *Follower) do(req *http.Request) ([]byte, int, error) {
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return data, resp.StatusCode, nil
}
