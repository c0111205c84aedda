// Package gather is mintd's scatter-gather coordinator: an HTTP facade
// that partitions one mining request into δ-aware per-shard root
// windows (package shard), fans it out over worker mintd processes,
// and merges the answers under the same response contract the single
// process serves — every merged answer is exact, loudly degraded,
// loudly truncated, or a clean 429/503, never silently wrong.
//
// The merge needs no dedup step: shard i's request carries the owned
// root window [b_i, b_i+1) and the engine's RootWindow restriction
// guarantees disjoint instance sets, so counts are plain sums and
// concatenated enumeration pages preserve the global chronological
// order. Failure semantics are the point of the layer:
//
//   - Range assignment is fixed 1:1 over the configured shard list, so
//     a dead or breaker-open shard means its root window goes unmined
//     and the merged response says so: Truncated with stop reason
//     "shard_unavailable" and Partial naming the missing shards — a
//     loud lower bound, never a silently short total.
//   - Shard calls get bounded retries with capped backoff, and (when
//     HedgeAfter is set) a hedged duplicate once the first copy looks
//     like a straggler; first response wins.
//   - Per-shard circuit breakers stop the coordinator from burning its
//     deadline on a shard that has been failing; an open breaker is a
//     missing shard, reported like any other.
//   - Identity before arithmetic: the coordinator fingerprints every
//     shard (the /v1/datasetinfo endpoint) and refuses to merge counts
//     from shards whose fingerprints disagree — two workers serving
//     different data under one dataset name must be a 502, not a sum.
//   - Retry-After hints stay honest under shard overload: a shed at
//     the coordinator reports the max of its own estimate and the
//     worst Retry-After its shards recently returned.
package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mint"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/shard"
)

// StopShardUnavailable is the merged stop reason when one or more
// shards' owned root windows could not be mined.
const StopShardUnavailable = "shard_unavailable"

// maxResponseBytes bounds one shard response body (an enumerate page of
// the maximum limit fits comfortably).
const maxResponseBytes = 64 << 20

// retryBase and retryCap shape the capped-exponential backoff between
// shard call attempts; probeTimeout bounds one readyz shard probe.
const (
	retryBase    = 50 * time.Millisecond
	retryCap     = time.Second
	probeTimeout = 500 * time.Millisecond
)

// Config assembles a Coordinator. Zero fields take defaults noted
// per-field.
type Config struct {
	// Shards are the worker base URLs ("http://host:port"). Order is
	// load-bearing: plan range i is always served by Shards[i], so a
	// stable shard list gives deterministic assignment across restarts.
	// An entry may be a replica SET — '|'-separated alternates
	// ("http://a1|http://a2") replicating the same data (WAL shipping,
	// mintd -follow). The first member is the preferred primary; on its
	// failure the fan-out fails over to a member whose current
	// fingerprint matches the plan's, so a replicated range survives
	// process death with exact answers. Only when an entire set is down
	// does its window degrade to a loud partial.
	Shards []string
	// Client issues shard requests (default: a client with no overall
	// timeout — per-request contexts carry the deadlines).
	Client *http.Client
	// MaxAttempts bounds tries per shard call (default 3).
	MaxAttempts int
	// HedgeAfter, when positive, launches a duplicate shard request
	// after this long without a response; the first answer wins. Keep it
	// near the shard's p99 — hedging the median doubles load for nothing.
	// Zero disables hedging.
	HedgeAfter time.Duration
	// Breaker shapes the per-shard circuit breakers.
	Breaker server.BreakerConfig
	// Admission bounds the coordinator's own front door.
	Admission server.AdmissionConfig
	// Caps bounds every admitted request's budget before splitting.
	Caps runctl.Caps
	// Quorum is the healthy-shard count readyz requires (default:
	// majority of Shards).
	Quorum int
	// Sliced declares that each worker serves only its own data slice
	// (produced by shard.Slice) instead of the full dataset. The
	// coordinator then derives owned windows from the workers' actual
	// time extents, skips the fingerprint-agreement check (slices are
	// *supposed* to differ), and refuses to enumerate (slice-local edge
	// IDs are not globally meaningful). The operator must slice with a
	// δ at least as large as any query δ — the coordinator cannot
	// verify slice self-sufficiency remotely.
	Sliced bool
	// MergeMargin is wall-clock headroom reserved from each shard's
	// deadline for the coordinator's own merge and serialization
	// (default 200ms).
	MergeMargin time.Duration
	// EnumerateMaxLimit caps one merged enumerate page (default 1000).
	EnumerateMaxLimit int
	// MaxBodyBytes caps every JSON request body, as on a worker
	// (0 = server.DefaultMaxBodyBytes); oversized bodies answer 413.
	MaxBodyBytes int64
	// Obs receives coordinator metrics (nil: dropped).
	Obs *obs.Registry
	// AccessLog, when non-nil, receives one JSON line per request
	// (trace id, route, priority, outcome, shed/partial markers).
	AccessLog io.Writer
	// TraceCapacity bounds the merged traces retained for
	// GET /debug/trace/<id> (default 256, oldest evicted).
	TraceCapacity int
}

func (c Config) normalized() Config {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.Quorum < 1 {
		c.Quorum = len(c.Shards)/2 + 1
	}
	if c.MergeMargin <= 0 {
		c.MergeMargin = 200 * time.Millisecond
	}
	if c.EnumerateMaxLimit <= 0 {
		c.EnumerateMaxLimit = 1000
	}
	return c
}

// setLabel names one replica set in errors, partials, and metrics.
func setLabel(members []string) string { return strings.Join(members, "|") }

// Coordinator is the scatter-gather serving core. Create with New,
// mount Handler, call Drain exactly once on the way out.
type Coordinator struct {
	cfg   Config
	obs   *obs.Registry
	brk   *server.BreakerGroup
	front *server.Front

	// sets[i] is shard entry i split into its replica members; a
	// single-URL entry is a one-member set. Plan range i belongs to
	// sets[i] as a unit — any member can serve it, fingerprint willing.
	sets [][]string

	// shardRetryUntil is the worst shard-reported Retry-After deadline
	// (unix nanos) seen recently; it keeps coordinator shed hints honest
	// when the overload lives behind the fan-out (CombineRetryAfter).
	shardRetryUntil atomic.Int64

	// infos caches each shard's DatasetInfoResponse per dataset.
	// Static datasets are immutable for a process lifetime, so a
	// fingerprint fetched once stays valid; a shard that later dies keeps
	// its cached identity and is reported missing rather than silently
	// re-planned around. Live (ingest/replicated) datasets are never
	// cached — their fingerprint moves with every append.
	infoMu sync.Mutex
	infos  map[string]map[string]*server.DatasetInfoResponse
}

// New builds a Coordinator from cfg.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("gather: at least one shard URL is required")
	}
	c := &Coordinator{
		cfg:   cfg.normalized(),
		obs:   cfg.Obs,
		brk:   server.NewBreakerGroup(cfg.Breaker, cfg.Obs),
		infos: map[string]map[string]*server.DatasetInfoResponse{},
	}
	for i, entry := range c.cfg.Shards {
		var set []string
		for _, m := range strings.Split(entry, "|") {
			if m = strings.TrimRight(strings.TrimSpace(m), "/"); m != "" {
				set = append(set, m)
			}
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("gather: shard entry %d is empty", i)
		}
		c.sets = append(c.sets, set)
	}
	c.front = server.NewFront(server.FrontConfig{
		Coordinator:   true,
		Admission:     cfg.Admission,
		Caps:          cfg.Caps,
		MaxBodyBytes:  cfg.MaxBodyBytes,
		Obs:           cfg.Obs,
		AccessLog:     cfg.AccessLog,
		TraceCapacity: cfg.TraceCapacity,
		// Shed and overload hints stay honest when the overload lives
		// behind the fan-out.
		ShardRetry: c.shardWorstRetry,
	})
	c.front.HandleQueries(c, c.cfg.EnumerateMaxLimit)
	c.front.HandleReadyz(c.handleReadyz)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.front.Handler() }

// Drain winds the coordinator down through the shared drain lifecycle
// (see server.Front.Drain): stop admitting, let in-flight fan-outs
// finish until ctx expires, then cancel them (shard calls abort via
// their request contexts) and wait.
func (c *Coordinator) Drain(ctx context.Context) error { return c.front.Drain(ctx, nil) }

// BuildReport assembles the end-of-life RunReport mintd flushes on exit.
func (c *Coordinator) BuildReport() *obs.RunReport { return c.front.BuildReport() }

// Shard RPC --------------------------------------------------------------

// retryable says whether a failed attempt is worth repeating: transport
// errors and overload/5xx are; other 4xx mean the request itself is
// wrong and will be wrong again.
func retryable(err error) bool {
	var se *server.StatusError
	if errors.As(err, &se) {
		return se.Status == http.StatusTooManyRequests || se.Status >= 500
	}
	return true
}

// noteShardRetryAfter folds one shard-reported Retry-After into the
// worst-deadline tracker behind CombineRetryAfter.
func (c *Coordinator) noteShardRetryAfter(d time.Duration) {
	dl := time.Now().Add(d).UnixNano()
	for {
		old := c.shardRetryUntil.Load()
		if old >= dl || c.shardRetryUntil.CompareAndSwap(old, dl) {
			return
		}
	}
}

// shardWorstRetry is the remaining worst shard-reported Retry-After.
func (c *Coordinator) shardWorstRetry() time.Duration {
	if d := time.Until(time.Unix(0, c.shardRetryUntil.Load())); d > 0 {
		return d
	}
	return 0
}

// countShard bumps a gather counter and its per-shard labeled twin.
func (c *Coordinator) countShard(name, shardURL string) {
	c.obs.Counter(name).Add(1)
	c.obs.Counter(obs.Labeled(name+"_by", "shard", shardURL)).Add(1)
}

// badRequest returns err's shard 400, or nil. A 400 is the request's
// fault, not the shard's: every member of every set would answer the
// same, so it bounces to the client unchanged instead of failing the
// shard over.
func badRequest(err error) *server.StatusError {
	var se *server.StatusError
	if errors.As(err, &se) && se.Status == http.StatusBadRequest {
		return se
	}
	return nil
}

// errBreakerOpen marks a shard skipped because its breaker is open.
var errBreakerOpen = errors.New("shard breaker open")

// call POSTs in to one shard with bounded retries, capped backoff, and
// (when configured) hedging, decoding the 200 body into out. The
// shard's breaker gates the call and records its outcome. Each call
// records one "shard.call" span carrying the retry/hedge/breaker
// decisions; its span id is propagated to the shard as the traceparent,
// so the shard's own span tree hangs under this span in the merged
// trace.
func (c *Coordinator) call(ctx context.Context, shardURL, path string, in, out any) (err error) {
	rt := obs.ReqTraceFrom(ctx)
	sp := rt.Begin("shard.call", rt.RootID())
	sp.Set("shard", shardURL)
	sp.Set("path", path)
	defer func() {
		if err != nil {
			sp.Set("outcome", "error")
			sp.Set("error", err.Error())
		} else {
			sp.Set("outcome", "ok")
		}
		sp.End()
	}()
	if c.brk.Acquire(shardURL) == server.Degrade {
		c.countShard("gather.breaker_skip", shardURL)
		sp.Set("breaker", "open")
		return fmt.Errorf("%s: %w", shardURL, errBreakerOpen)
	}
	body, err := json.Marshal(in)
	if err != nil {
		c.brk.Record(shardURL, true) // our bug, not shard health evidence
		return err
	}
	// The shard call carries this span's id as the parent, so the
	// worker-side root span links under it in the merged trace.
	tp := ""
	if rt.TraceID() != "" {
		tp = obs.TraceContext{TraceID: rt.TraceID(), SpanID: sp.ID()}.Traceparent()
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.countShard("gather.retry", shardURL)
			sp.Set("retries", strconv.Itoa(attempt))
			select {
			case <-time.After(runctl.Backoff(attempt-1, retryBase, retryCap)):
			case <-ctx.Done():
				c.brk.Record(shardURL, false)
				return ctx.Err()
			}
		}
		err := c.attempt(ctx, shardURL, path, tp, body, out, sp)
		if err == nil {
			c.brk.Record(shardURL, true)
			return nil
		}
		lastErr = err
		var se *server.StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			c.noteShardRetryAfter(time.Duration(se.RetryAfter) * time.Second)
		}
		if !retryable(err) {
			// The shard answered (it is healthy); the request is bad.
			c.brk.Record(shardURL, true)
			return err
		}
		if ctx.Err() != nil {
			break
		}
	}
	c.brk.Record(shardURL, false)
	return fmt.Errorf("%s%s: %w", shardURL, path, lastErr)
}

// attempt issues one shard request, hedging a duplicate after
// cfg.HedgeAfter without a response. First answer wins; the cancel on
// return reclaims the loser. tp is the traceparent header value
// propagated to the shard ("" when the request carries no trace).
func (c *Coordinator) attempt(ctx context.Context, shardURL, path, tp string, body []byte, out any, sp *obs.SpanRef) error {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type reply struct {
		data []byte
		err  error
	}
	ch := make(chan reply, 2)
	do := func() {
		req, err := http.NewRequestWithContext(actx, http.MethodPost, shardURL+path, bytes.NewReader(body))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if tp != "" {
			req.Header.Set("traceparent", tp)
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			ch <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		if err != nil {
			ch <- reply{err: err}
			return
		}
		if resp.StatusCode != http.StatusOK {
			var er server.ErrorResponse
			_ = json.Unmarshal(data, &er)
			msg := er.Error
			if msg == "" {
				msg = resp.Status
			}
			ch <- reply{err: &server.StatusError{Status: resp.StatusCode, Msg: msg, RetryAfter: er.RetryAfterSeconds}}
			return
		}
		ch <- reply{data: data}
	}
	go do()
	pending := 1
	var timerC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		timerC = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return json.Unmarshal(r.data, out)
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return firstErr
			}
			timerC = nil // one copy already failed; await the other
		case <-timerC:
			timerC = nil
			pending++
			c.countShard("gather.hedged", shardURL)
			sp.Set("hedged", "true")
			go do()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Planning ---------------------------------------------------------------

// shardInfo fetches (and caches forever) one shard's identity for a
// dataset.
func (c *Coordinator) shardInfo(ctx context.Context, shardURL, dataset string) (*server.DatasetInfoResponse, error) {
	c.infoMu.Lock()
	m := c.infos[dataset]
	if m == nil {
		m = map[string]*server.DatasetInfoResponse{}
		c.infos[dataset] = m
	}
	info := m[shardURL]
	c.infoMu.Unlock()
	if info != nil {
		return info, nil
	}
	var out server.DatasetInfoResponse
	if err := c.call(ctx, shardURL, "/v1/datasetinfo", server.DatasetInfoRequest{Dataset: dataset}, &out); err != nil {
		return nil, err
	}
	if !out.Live {
		// A live dataset's fingerprint describes this instant only;
		// caching it would plan future fan-outs against a stale identity.
		c.infoMu.Lock()
		c.infos[dataset][shardURL] = &out
		c.infoMu.Unlock()
	}
	return &out, nil
}

// setInfo identifies one replica set: members in order, first answer
// wins and becomes the acting member. A 400 (unknown dataset) bounces
// immediately — every member would say the same.
func (c *Coordinator) setInfo(ctx context.Context, set []string, dataset string) (*server.DatasetInfoResponse, string, error) {
	var lastErr error
	for _, u := range set {
		info, err := c.shardInfo(ctx, u, dataset)
		if err == nil {
			return info, u, nil
		}
		lastErr = err
		if badRequest(err) != nil {
			return nil, "", err
		}
	}
	return nil, "", lastErr
}

// queryPlan is one request's fan-out: ranges[i] is the owned root
// window served by replica set members[i], preferring acting member
// urls[i]; infos[i] is the identity the set was planned against (its
// fingerprint is the failover admission bar), nil when no member of the
// set could even be identified (its window is missing from the start).
// edges is the dataset's size: one shard's edge count in full-data mode
// (every shard serves the same bytes), the slices' sum when sliced.
type queryPlan struct {
	ranges  []shard.Range
	urls    []string
	members [][]string
	infos   []*server.DatasetInfoResponse
	edges   int
}

// missingUpfront lists the replica sets already known unusable.
func (qp *queryPlan) missingUpfront() []string {
	var out []string
	for i, info := range qp.infos {
		if info == nil {
			out = append(out, setLabel(qp.members[i]))
		}
	}
	return out
}

// planFor identifies every shard and computes the fan-out for one
// (dataset, δ) query.
func (c *Coordinator) planFor(ctx context.Context, dataset string, delta mint.Timestamp) (*queryPlan, error) {
	n := len(c.sets)
	infos := make([]*server.DatasetInfoResponse, n)
	acting := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, set := range c.sets {
		wg.Add(1)
		go func(i int, set []string) {
			defer wg.Done()
			infos[i], acting[i], errs[i] = c.setInfo(ctx, set, dataset)
		}(i, set)
	}
	wg.Wait()
	// A 400 is about the request (unknown dataset), not shard health:
	// bounce it to the client unchanged.
	for _, err := range errs {
		if se := badRequest(err); se != nil {
			return nil, se
		}
	}

	if c.cfg.Sliced {
		return c.planSliced(infos, acting, errs)
	}

	// Full-data mode: every identified set must serve the same bytes.
	// (Members WITHIN a set replicate one history by construction; a
	// laggy member is rejected at failover time, not here.)
	fp, span := "", shard.Range{}
	firstOK := -1
	for i, info := range infos {
		if info == nil {
			continue
		}
		if firstOK < 0 {
			firstOK = i
			fp = info.Fingerprint
			span = shard.Range{Start: mint.Timestamp(info.MinTS), End: mint.Timestamp(info.MaxTS)}
			continue
		}
		if info.Fingerprint != fp {
			return nil, &server.StatusError{Status: http.StatusBadGateway, Msg: fmt.Sprintf(
				"shard data mismatch for dataset %q: %s serves %s but %s serves %s — refusing to merge",
				dataset, acting[firstOK], fp, acting[i], info.Fingerprint)}
		}
	}
	if firstOK < 0 {
		msg := fmt.Sprintf("no shard could describe dataset %q", dataset)
		for i, err := range errs {
			if err != nil {
				msg += fmt.Sprintf("; %s: %v", setLabel(c.sets[i]), err)
				break
			}
		}
		return nil, &server.StatusError{Status: http.StatusServiceUnavailable, Msg: msg}
	}
	p := shard.New(span.Start, span.End, n, delta)
	qp := &queryPlan{ranges: p.Ranges, members: c.sets, infos: infos, edges: infos[firstOK].Edges}
	for i := range p.Ranges {
		u := acting[i]
		if u == "" {
			u = c.sets[i][0]
		}
		qp.urls = append(qp.urls, u)
	}
	return qp, nil
}

// plan runs planFor for one admitted request under a gather.plan span.
func (c *Coordinator) plan(q *server.Admitted, dataset string, deltaSeconds int64) (*queryPlan, error) {
	sp := q.Trace.Begin("gather.plan", q.Trace.RootID())
	defer sp.End()
	qp, err := c.planFor(q.Ctx, dataset, server.Delta(deltaSeconds))
	if err != nil {
		sp.Set("outcome", "error")
		return nil, err
	}
	sp.Set("shards", strconv.Itoa(len(qp.ranges)))
	if miss := qp.missingUpfront(); len(miss) > 0 {
		sp.Set("missing_upfront", strings.Join(miss, ","))
	}
	return qp, nil
}

// planSliced derives owned windows from the workers' actual time
// extents: shard k (ordered by its slice's first timestamp) owns
// [minTS_k, minTS_k+1), the last through maxTS+1. The reconstructed
// boundaries may sit later than the slicer's cuts, but only across
// stretches holding no edges — no roots live there, so the windows
// still partition the instance set exactly. Every shard must be
// identifiable at least once (cached thereafter): a never-seen shard's
// window cannot be reconstructed, and folding it into a neighbour that
// does not hold its data would silently undercount — the one failure
// mode this layer exists to prevent.
func (c *Coordinator) planSliced(infos []*server.DatasetInfoResponse, acting []string, errs []error) (*queryPlan, error) {
	for i, info := range infos {
		if info == nil {
			return nil, &server.StatusError{Status: http.StatusServiceUnavailable, Msg: fmt.Sprintf(
				"sliced coordinator cannot plan: shard %s never identified (%v)", setLabel(c.sets[i]), errs[i])}
		}
	}
	order := make([]int, len(infos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return infos[order[a]].MinTS < infos[order[b]].MinTS })
	qp := &queryPlan{}
	for k, idx := range order {
		start := mint.Timestamp(infos[idx].MinTS)
		var end mint.Timestamp
		if k+1 < len(order) {
			end = mint.Timestamp(infos[order[k+1]].MinTS)
		} else {
			end = mint.Timestamp(infos[idx].MaxTS) + 1
		}
		if end <= start {
			end = start + 1
		}
		qp.ranges = append(qp.ranges, shard.Range{Start: start, End: end})
		qp.urls = append(qp.urls, acting[idx])
		qp.members = append(qp.members, c.sets[idx])
		qp.infos = append(qp.infos, infos[idx])
		qp.edges += infos[idx].Edges
	}
	return qp, nil
}

// callSet issues one fan-out call with replica failover: the acting
// member first, then — on transport/5xx failure — each remaining set
// member whose CURRENT fingerprint matches the plan's. The fingerprint
// bar hedges against laggy standbys: a replica still catching up
// serves an older graph, and merging its window would be a silently
// short count, the one failure mode this layer exists to prevent. Only
// when every member is down or lagging does the range go missing
// (loud partial). A 400 is the request's fault and bounces immediately
// — every member would answer the same.
func (c *Coordinator) callSet(ctx context.Context, qp *queryPlan, i int, dataset, path string, in, out any) error {
	err := c.call(ctx, qp.urls[i], path, in, out)
	for _, m := range qp.members[i] {
		if err == nil || badRequest(err) != nil {
			return err
		}
		if m == qp.urls[i] || ctx.Err() != nil {
			continue
		}
		info, ierr := c.shardInfo(ctx, m, dataset)
		if ierr != nil {
			continue
		}
		if info.Fingerprint != qp.infos[i].Fingerprint {
			c.countShard("gather.failover_fp_mismatch", m)
			continue
		}
		if err = c.call(ctx, m, path, in, out); err == nil {
			c.countShard("gather.failover", m)
		}
	}
	return err
}

// The coordinator's executor ----------------------------------------------

// errRootWindow refuses a client-set root window: owned windows are the
// coordinator's to assign.
var errRootWindow = &server.StatusError{Status: http.StatusBadRequest,
	Msg: "root_window is assigned by the coordinator; query a worker directly to restrict roots"}

// Count is the coordinator's count step (server.Executor): one
// (single-motif or batch) fan-out — plan the shards, split the budget,
// assign each shard its owned root window, and merge the answers.
// Root-window independence makes the merge a plain per-entry sum;
// Degraded/Truncated markers OR together so a blended answer is never
// presented as exact. Batch requests merge PerMotif entrywise — shards
// answer the same motif list in the same deterministic order (Motifs
// then MotifSpecs), so entry i everywhere is the same motif; a shard
// answering a different entry count is treated as failed rather than
// mis-summed. edges is the plan's dataset size.
func (c *Coordinator) Count(q *server.Admitted, req *server.CountRequest, mq mint.Query) (*server.CountResponse, int, error) {
	switch {
	case req.Supervised:
		return nil, 0, &server.StatusError{Status: http.StatusBadRequest, Msg: "supervised is not supported in coordinator mode"}
	case req.RootWindow != nil:
		return nil, 0, errRootWindow
	}
	ctx, rt := q.Ctx, q.Trace
	qp, err := c.plan(q, req.Dataset, req.DeltaSeconds)
	if err != nil {
		return nil, 0, err
	}
	n := len(qp.ranges)
	per := runctl.SplitBudget(q.Full, n, c.cfg.MergeMargin)
	numMotifs := len(mq.Motifs)

	results := make([]*server.CountResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range qp.ranges {
		if qp.infos[i] == nil {
			errs[i] = errBreakerOpen
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The client's request, under the shard's split budget and
			// owned root window. The shard returns its span fragment (not
			// an explain tree) so the merged trace covers the fan-out.
			sreq := *req
			sreq.TimeoutMS, sreq.MaxMatches, sreq.MaxNodes = shardTimeoutMS(per), per.MaxMatches, per.MaxNodes
			sreq.RootWindow = &server.TimeWindow{StartTS: int64(qp.ranges[i].Start), EndTS: int64(qp.ranges[i].End)}
			sreq.Explain, sreq.ReturnTrace = false, rt.TraceID() != ""
			var out server.CountResponse
			err := c.callSet(ctx, qp, i, req.Dataset, "/v1/count", sreq, &out)
			if err == nil && numMotifs > 0 && len(out.PerMotif) != numMotifs {
				// A shard whose entry list does not line up cannot be merged
				// entrywise; a mis-aligned sum would be silently wrong.
				err = fmt.Errorf("shard %s answered %d per-motif entries, want %d",
					qp.urls[i], len(out.PerMotif), numMotifs)
			}
			if err != nil {
				c.countShard("gather.shard_failed", qp.urls[i])
				errs[i] = err
				return
			}
			rt.Import(out.TraceFrag, qp.urls[i])
			out.TraceFrag = nil // merged client responses carry one trace id, not raw shard spans
			results[i] = &out
		}(i)
	}
	wg.Wait()

	// A shard that answered 400 is reporting a malformed fan-out request:
	// that is the client's error, not a missing shard.
	for _, err := range errs {
		if se := badRequest(err); se != nil {
			return nil, 0, se
		}
	}

	out := &server.CountResponse{Engine: mint.EngineExact, Exact: true}
	if numMotifs > 0 {
		out.PerMotif = make([]server.MotifCountEntry, numMotifs)
	}
	var missing []string
	for i, res := range results {
		if res == nil {
			missing = append(missing, setLabel(qp.members[i]))
			continue
		}
		out.Count += res.Count
		out.ExactPartial += res.ExactPartial
		if res.Degraded {
			out.Degraded = true
		}
		if res.Truncated {
			out.Truncated = true
			if out.StopReason == "" {
				out.StopReason = res.StopReason
			}
		}
		for j, e := range res.PerMotif {
			m := &out.PerMotif[j]
			m.Motif, m.Spec = e.Motif, e.Spec
			m.Count += e.Count
			if e.Truncated {
				m.Truncated = true
				if m.StopReason == "" {
					m.StopReason = e.StopReason
				}
			}
		}
	}
	if len(missing) == n {
		return nil, 0, &server.StatusError{Status: http.StatusServiceUnavailable, Msg: "all shards unavailable"}
	}
	if len(missing) > 0 {
		c.obs.Counter("gather.partial_merge").Add(1)
		out.Truncated = true
		out.StopReason = StopShardUnavailable
		out.Partial = &server.PartialInfo{MissingShards: missing, Bound: "lower"}
		// A lost shard's window is missing from EVERY entry: each one is
		// now a loud lower bound, whatever its own shards reported.
		for j := range out.PerMotif {
			m := &out.PerMotif[j]
			m.Truncated = true
			if m.StopReason == "" {
				m.StopReason = StopShardUnavailable
			}
		}
	}
	switch {
	case out.Degraded:
		// A shard answered with an estimate mixed into exact sums; the
		// merged engine is neither — name the blend honestly.
		out.Exact = false
		out.Engine = "mixed"
	case out.Truncated:
		out.Exact = false
		out.Engine = mint.EnginePartial
	}
	return out, qp.edges, nil
}

// shardTimeoutMS converts a split budget's deadline into the per-shard
// request timeout (0 = let the shard apply its own default).
func shardTimeoutMS(per runctl.Budget) int64 {
	if per.Deadline.IsZero() {
		return 0
	}
	ms := time.Until(per.Deadline).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// Merged page tokens are "shardIdx:innerToken" — the shard the walk
// stopped in plus that shard's own resumption token.
func parseMergedToken(tok string, n int) (int, string, error) {
	if tok == "" {
		return 0, "", nil
	}
	malformed := &server.StatusError{Status: http.StatusBadRequest, Msg: "malformed page_token"}
	idxs, inner, found := strings.Cut(tok, ":")
	if !found {
		return 0, "", malformed
	}
	idx, err := strconv.Atoi(idxs)
	if err != nil || idx < 0 || idx >= n {
		return 0, "", malformed
	}
	return idx, inner, nil
}

// Enumerate is the coordinator's enumerate step (server.Executor): walk
// the shards in range order. Within one shard the worker streams the
// deterministic chronological order, and ranges are ordered by root
// timestamp, so concatenation reproduces the global order. The walk
// cannot skip a shard without breaking the global order: a shard that
// is missing ends the page there, loudly.
func (c *Coordinator) Enumerate(q *server.Admitted, req *server.EnumerateRequest, _ *mint.Motif) (*server.EnumerateResponse, error) {
	switch {
	case c.cfg.Sliced:
		return nil, &server.StatusError{Status: http.StatusNotImplemented,
			Msg: "enumerate is not supported on a sliced deployment: slice-local edge IDs are not globally meaningful"}
	case req.RootWindow != nil:
		return nil, errRootWindow
	}
	mineCtx, rt := q.Ctx, q.Trace
	qp, err := c.plan(q, req.Dataset, req.DeltaSeconds)
	if err != nil {
		return nil, err
	}
	n := len(qp.ranges)
	shardIdx, inner, err := parseMergedToken(req.PageToken, n)
	if err != nil {
		return nil, err
	}
	per := runctl.SplitBudget(q.Full, 1, c.cfg.MergeMargin) // sequential walk: full wall per shard

	out := &server.EnumerateResponse{Matches: [][]int32{}}
	stopMissing := func() {
		out.Truncated = true
		out.StopReason = StopShardUnavailable
		out.Partial = &server.PartialInfo{MissingShards: []string{setLabel(qp.members[shardIdx])}, Bound: "lower"}
	}
	for shardIdx < n && len(out.Matches) < req.Limit {
		if qp.infos[shardIdx] == nil {
			stopMissing()
			break
		}
		sreq := *req
		sreq.TimeoutMS, sreq.Limit, sreq.PageToken = shardTimeoutMS(per), req.Limit-len(out.Matches), inner
		sreq.RootWindow = &server.TimeWindow{StartTS: int64(qp.ranges[shardIdx].Start), EndTS: int64(qp.ranges[shardIdx].End)}
		sreq.Explain, sreq.ReturnTrace = false, rt.TraceID() != ""
		var sres server.EnumerateResponse
		if err := c.callSet(mineCtx, qp, shardIdx, req.Dataset, "/v1/enumerate", sreq, &sres); err != nil {
			if se := badRequest(err); se != nil {
				return nil, se
			}
			c.countShard("gather.shard_failed", qp.urls[shardIdx])
			stopMissing()
			break
		}
		rt.Import(sres.TraceFrag, qp.urls[shardIdx])
		out.Matches = append(out.Matches, sres.Matches...)
		if sres.Truncated && sres.NextPageToken == "" {
			// A real truncation (wall/node budget), not a filled page.
			out.Truncated = true
			out.StopReason = sres.StopReason
			break
		}
		if sres.NextPageToken != "" {
			inner = sres.NextPageToken
			if len(out.Matches) >= req.Limit {
				out.NextPageToken = fmt.Sprintf("%d:%s", shardIdx, inner)
				break
			}
			continue
		}
		shardIdx++
		inner = ""
		if shardIdx < n && len(out.Matches) >= req.Limit {
			out.NextPageToken = fmt.Sprintf("%d:", shardIdx)
			break
		}
	}
	return out, nil
}

// DatasetInfo reports the (verified-identical) dataset identity in
// full-data mode (server.Executor); sliced deployments have no single
// identity to report.
func (c *Coordinator) DatasetInfo(ctx context.Context, dataset string) (*server.DatasetInfoResponse, error) {
	if c.cfg.Sliced {
		return nil, &server.StatusError{Status: http.StatusNotImplemented,
			Msg: "datasetinfo is per-slice on a sliced deployment; query workers directly"}
	}
	qp, err := c.planFor(ctx, dataset, mint.DeltaHour)
	if err != nil {
		return nil, err
	}
	for _, info := range qp.infos {
		if info != nil {
			return info, nil
		}
	}
	return nil, &server.StatusError{Status: http.StatusServiceUnavailable, Msg: "no shard available"}
}

// handleReadyz live-probes every shard's /healthz and reports ready only
// when a quorum answers: a coordinator whose fan-outs would all come
// back partial should not receive traffic a load balancer could send to
// a healthier peer. (The draining check runs first, in
// server.Front.HandleReadyz.)
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	defer cancel()
	// Probe every member of every set; a SET is healthy when any member
	// answers — quorum counts sets, because a set with one live replica
	// still serves its whole root window exactly.
	status := make([][]string, len(c.sets))
	var wg sync.WaitGroup
	for i, set := range c.sets {
		status[i] = make([]string, len(set))
		for j, u := range set {
			wg.Add(1)
			go func(st *string, u string) {
				defer wg.Done()
				*st = "unreachable"
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
				if err != nil {
					return
				}
				resp, err := c.cfg.Client.Do(req)
				if err != nil {
					return
				}
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
				resp.Body.Close()
				*st = "ok"
				if resp.StatusCode != http.StatusOK {
					*st = fmt.Sprintf("status %d", resp.StatusCode)
				}
			}(&status[i][j], u)
		}
	}
	wg.Wait()
	healthy := 0
	shards := map[string]string{}
	for i, set := range c.sets {
		setOK := false
		for j, u := range set {
			shards[u] = status[i][j]
			setOK = setOK || status[i][j] == "ok"
		}
		if setOK {
			healthy++
		}
	}
	state, code := "ready", http.StatusOK
	if healthy < c.cfg.Quorum {
		state, code = "below quorum", http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, map[string]any{"status": state, "healthy": healthy, "quorum": c.cfg.Quorum, "shards": shards})
}
