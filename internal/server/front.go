package server

// The HTTP front end both mintd roles share. A worker (Server) and a
// scatter-gather coordinator (package gather) differ only in the step
// between admission and the response, their Executor (routes.go): the
// worker checks a graph out of its registry and runs an engine; the
// coordinator plans, fans out over its shards and merges. Root windows
// are independent, so a worker is simply the one-window case of the
// same contract. Everything around that step lives here, once: routing
// and per-route instrumentation, the drain lifecycle, the bounded body
// decode, admission and its Retry-After hints, budget derivation, the
// response epilogue with its loud markers, health and readiness, and
// the end-of-life run report.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
)

// DefaultMaxBodyBytes bounds a JSON request body when no limit is
// configured: generous enough for large ingest batches, small enough
// that a single request cannot drive unbounded allocation.
const DefaultMaxBodyBytes = 64 << 20

// FrontConfig assembles a Front.
type FrontConfig struct {
	// Coordinator names the scatter-gather role: routes meter and trace
	// as gather.<route> (not http.<route>), drain counters are
	// gather.drain_* (not server.drain_*), and the run report's mode is
	// "coordinate" (not "serve").
	Coordinator bool
	// Admission bounds the front door; Caps bounds every admitted
	// request's budget.
	Admission AdmissionConfig
	Caps      runctl.Caps
	// MaxBodyBytes caps every JSON request body (0 = DefaultMaxBodyBytes);
	// oversized bodies answer 413.
	MaxBodyBytes int64
	// Obs receives the front end's metrics (nil: dropped).
	Obs *obs.Registry
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// TraceCapacity bounds the traces kept for GET /debug/trace/<id>
	// (0 = 256).
	TraceCapacity int
	// ShardRetry, when set, reports the worst Retry-After the role's
	// shards recently returned; no hint this front end gives is lower.
	ShardRetry func() time.Duration
}

// Front is one role's HTTP front end. Create with NewFront, mount the
// role's routes with Handle and HandleReadyz, serve Handler, and call
// Drain exactly once on the way out.
type Front struct {
	// route prefixes per-route metrics and root spans; scope prefixes
	// the drain counters; noun names the role in drain refusals; mode
	// labels the run report.
	route, scope, noun, mode string

	cfg    FrontConfig
	obs    *obs.Registry
	adm    *Admission
	traces *obs.TraceStore
	alog   *obs.AccessLogger
	mux    *http.ServeMux
	start  time.Time

	// runCtx is canceled when drain runs out of patience; every request
	// context is tied to it, so cancellation reaches the engines'
	// cooperative checkpoints and the coordinator's shard calls.
	runCtx     context.Context
	cancelRuns context.CancelFunc

	// stateMu serializes the draining flip against in-flight Add, so
	// Drain's Wait can never race a late registration.
	stateMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup
}

// NewFront builds a Front serving /healthz, /metrics and
// /debug/trace/{id}; the role adds its API routes and readiness.
func NewFront(cfg FrontConfig) *Front {
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.ShardRetry == nil {
		cfg.ShardRetry = func() time.Duration { return 0 }
	}
	f := &Front{
		route: "http", scope: "server", noun: "server", mode: "serve",
		cfg:    cfg,
		obs:    cfg.Obs,
		adm:    NewAdmission(cfg.Admission, cfg.Obs),
		traces: obs.NewTraceStore(cfg.TraceCapacity),
		alog:   obs.NewAccessLogger(cfg.AccessLog),
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	if cfg.Coordinator {
		f.route, f.scope, f.noun, f.mode = "gather", "gather", "coordinator", "coordinate"
	}
	f.runCtx, f.cancelRuns = context.WithCancel(context.Background())
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /debug/trace/{id}", f.handleTraceDump)
	f.mux.Handle("GET /metrics", obs.MetricsHandler(f.obs))
	return f
}

// Handler returns the front end's HTTP handler.
func (f *Front) Handler() http.Handler { return f.mux }

// Handle mounts one API route behind instrument; name is the route's
// metric and span name.
func (f *Front) Handle(pattern, name string, h http.HandlerFunc) {
	f.mux.HandleFunc(pattern, f.instrument(name, h))
}

// HandleReadyz mounts the role's readiness check behind the shared
// draining check: a draining process is never ready.
func (f *Front) HandleReadyz(ready http.HandlerFunc) {
	f.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		echoTraceID(w, r)
		f.stateMu.RLock()
		draining := f.draining
		f.stateMu.RUnlock()
		if draining {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		ready(w, r)
	})
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	echoTraceID(w, r)
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Drain lifecycle ---------------------------------------------------------

// beginRequest registers one in-flight API request; it fails once drain
// has begun. The returned func must be deferred.
func (f *Front) beginRequest() (func(), bool) {
	f.stateMu.RLock()
	defer f.stateMu.RUnlock()
	if f.draining {
		return nil, false
	}
	f.inflight.Add(1)
	return f.inflight.Done, true
}

// RequestCtx ties an HTTP request context to the run lifetime: cancel
// fires when either the client goes away or drain forces runs down.
// The cleanup func must be deferred.
func (f *Front) RequestCtx(r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(f.runCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
	}
}

// Drain gracefully winds the role down: stop admitting (readyz flips to
// 503, queued waiters bounce with ErrDraining), let in-flight requests
// finish until ctx expires, then cancel their run contexts — engines
// unwind cooperatively, supervised requests flush their checkpoints,
// shard calls abort — and wait for the stragglers. seal, when non-nil,
// runs once no request is in flight (the worker closes its ingest
// stream there). The HTTP listener shutdown and obs flush are the
// caller's job, in that order after Drain returns.
func (f *Front) Drain(ctx context.Context, seal func()) error {
	f.stateMu.Lock()
	already := f.draining
	f.draining = true
	f.stateMu.Unlock()
	if already {
		return fmt.Errorf("%s: Drain called twice", f.scope)
	}
	f.obs.Counter(f.scope + ".drain_started").Add(1)
	f.adm.Stop()

	done := make(chan struct{})
	go func() {
		f.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Patience exhausted: cancel the runs. Cooperative cancellation
		// reaches every engine within one runctl.CheckInterval, so this
		// second wait is bounded by microseconds of mining plus response
		// serialization.
		f.obs.Counter(f.scope + ".drain_forced").Add(1)
		f.cancelRuns()
		<-done
	}
	f.cancelRuns() // release the AfterFunc watchers
	if seal != nil {
		seal()
	}
	f.obs.Counter(f.scope + ".drain_done").Add(1)
	return nil
}

// BuildReport assembles the end-of-life RunReport mintd flushes on
// exit: uptime, the full metric state, and the serving mode.
func (f *Front) BuildReport() *obs.RunReport {
	rep := obs.NewRunReport("mintd", f.mode)
	rep.StartUnixNano = f.start.UnixNano()
	rep.WallSeconds = time.Since(f.start).Seconds()
	rep.CPUSeconds = obs.ProcessCPUSeconds()
	rep.AttachSnapshot(f.obs.Snapshot())
	return rep
}

// Request ladder ----------------------------------------------------------

// instrument wraps an API handler with trace context resolution,
// in-flight registration, per-route metrics, a structured access-log
// line, and a panic backstop (a handler bug becomes a 500 and a
// counter, never a dead process). The X-Trace-Id header is stamped
// before any outcome is decided, so shed and drain responses carry it
// too.
func (f *Front) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	route := f.route + "." + name
	return func(w http.ResponseWriter, r *http.Request) {
		rt, sw, r := beginTrace(w, r, route)
		start := time.Now()
		done, ok := f.beginRequest()
		if !ok {
			f.obs.Counter(route + ".rejected_draining").Add(1)
			rt.Annotate("outcome", "draining")
			WriteError(sw, http.StatusServiceUnavailable, f.noun+" is draining", RetryAfterSeconds(30*time.Second))
			f.finishTrace(rt, name, sw.Status(), start)
			return
		}
		f.obs.Counter(route + ".requests").Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				f.obs.Counter(route + ".panics").Add(1)
				WriteError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec), 0)
			}
			f.obs.Histogram(route + ".latency_ns").Observe(int64(time.Since(start)))
			done()
			f.finishTrace(rt, name, sw.Status(), start)
		}()
		h(sw, r)
	}
}

// Decode decodes one JSON request body through http.MaxBytesReader. On
// failure it writes the error response — 413 for an oversized body, 400
// otherwise — and returns false. Every body-carrying handler comes
// through here: it is the request-size bound.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var big *http.MaxBytesError
	if errors.As(err, &big) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", big.Limit), 0)
	} else {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
	}
	return false
}

// RetryAfter is the backoff hint for overload answers: the admission
// estimate, raised to the worst hint the role's shards recently sent.
func (f *Front) RetryAfter() time.Duration { return f.adm.CombineRetryAfter(f.cfg.ShardRetry()) }

// Admitted is one admitted request, between admission and the reply.
type Admitted struct {
	// Ctx is canceled when the client leaves or drain runs out of
	// patience; it is the mine context, bounded by Full's deadline.
	Ctx context.Context
	// Trace is the request's span tree (nil-safe).
	Trace *obs.ReqTrace
	// Start is when admission let the request in; Full is the budget
	// prelude derived then from the request's timeout and limits under
	// the configured caps.
	Start time.Time
	Full  runctl.Budget
	done  func()
}

// Done releases the request's admission slot and contexts; defer it.
func (q *Admitted) Done() { q.done() }

// admit ties the request to the run lifetime and runs the admission
// ladder at the request's priority. It writes every refusal itself
// (400 bad priority, 429 shed, 503 draining or queue timeout); on
// success the caller must defer Done.
func (f *Front) admit(w http.ResponseWriter, r *http.Request, endpoint, priority string) (*Admitted, bool) {
	ctx, cleanup := f.RequestCtx(r)
	rt := obs.ReqTraceFrom(ctx)
	pri, err := ParsePriority(priority)
	if err != nil {
		cleanup()
		WriteError(w, http.StatusBadRequest, err.Error(), 0)
		return nil, false
	}
	rt.Annotate("priority", pri.String())
	sp := rt.Begin("admission.wait", rt.RootID())
	defer sp.End()
	release, err := f.adm.Acquire(ctx, pri)
	if err == nil {
		sp.Set("outcome", "admitted")
		return &Admitted{Ctx: ctx, Trace: rt, Start: time.Now(), done: func() {
			release()
			cleanup()
		}}, true
	}
	cleanup()
	route := f.route + "." + endpoint
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		sp.Set("outcome", "shed")
		f.obs.Counter(route + ".shed").Add(1)
		f.obs.Counter(f.scope + ".shed").Add(1)
		WriteError(w, http.StatusTooManyRequests, err.Error(), RetryAfterSeconds(max(shed.RetryAfter, f.RetryAfter())))
	case errors.Is(err, ErrDraining):
		sp.Set("outcome", "draining")
		rt.Annotate("outcome", "draining")
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(30*time.Second))
	default: // queue timeout or client context expiry
		sp.Set("outcome", "queue_timeout")
		f.obs.Counter(route + ".queue_timeout").Add(1)
		WriteError(w, http.StatusServiceUnavailable, err.Error(), RetryAfterSeconds(f.RetryAfter()))
	}
	return nil, false
}

// prelude admits a decoded mining request (see admit), then derives its
// budget and bounds its mine context by the budget's deadline.
func (f *Front) prelude(w http.ResponseWriter, r *http.Request, endpoint, priority string, timeoutMS int64, want runctl.Budget) (*Admitted, bool) {
	q, ok := f.admit(w, r, endpoint, priority)
	if !ok {
		return nil, false
	}
	q.Full = runctl.DeriveBudget(q.Start, time.Duration(timeoutMS)*time.Millisecond, want, f.cfg.Caps)
	if !q.Full.Deadline.IsZero() {
		var cancel context.CancelFunc
		q.Ctx, cancel = context.WithDeadline(q.Ctx, q.Full.Deadline)
		release := q.done
		q.done = func() {
			cancel()
			release()
		}
	}
	return q, true
}

// reply is the response epilogue of every mining route. It annotates
// the trace with the answer's loud markers (engine, degraded,
// truncated, partial) for the access log, stamps trace_id and wall_ms,
// attaches the explain tree and the raw span fragment when the request
// asked for them, and writes the 200. out is a *CountResponse,
// *EnumerateResponse or *ProfileResponse.
func (f *Front) reply(w http.ResponseWriter, q *Admitted, out any, explain, returnTrace bool) {
	rt := q.Trace
	var (
		traceID *string
		tree    **obs.ExplainNode
		frag    *[]obs.Span
		wallMS  *float64
		stop    string
		partial *PartialInfo
	)
	switch o := out.(type) {
	case *CountResponse:
		rt.Annotate("engine", o.Engine)
		if o.Degraded {
			rt.Annotate("degraded", "true")
		}
		if o.Truncated {
			stop = o.StopReason
		}
		traceID, tree, frag, wallMS, partial = &o.TraceID, &o.Explain, &o.TraceFrag, &o.WallMS, o.Partial
	case *EnumerateResponse:
		if o.Truncated {
			stop = o.StopReason
		}
		traceID, tree, frag, wallMS, partial = &o.TraceID, &o.Explain, &o.TraceFrag, &o.WallMS, o.Partial
	case *ProfileResponse:
		for _, e := range o.Profile {
			if e.Truncated && stop == "" {
				stop = e.StopReason
			}
		}
		traceID, tree, wallMS, partial = &o.TraceID, &o.Explain, &o.WallMS, o.Partial
	default:
		panic(fmt.Sprintf("server: reply with %T", out))
	}
	if stop != "" {
		rt.Annotate("truncated", stop)
	}
	if partial != nil {
		rt.Annotate("partial", strings.Join(partial.MissingShards, ","))
	}
	*traceID = rt.TraceID()
	if explain {
		*tree = obs.BuildExplain(rt.Spans())
	}
	if returnTrace && frag != nil {
		*frag = rt.Spans()
	}
	*wallMS = float64(time.Since(q.Start).Microseconds()) / 1000
	WriteJSON(w, http.StatusOK, out)
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

// WriteError writes an ErrorResponse; a positive retryAfter (seconds)
// also sets the Retry-After header.
func WriteError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	WriteJSON(w, status, ErrorResponse{Error: msg, RetryAfterSeconds: retryAfter})
}
