package server

// Per-request distributed tracing and access logging for the front end.
// Every instrumented route resolves a trace identity (incoming
// traceparent / X-Request-ID, else freshly minted), records a span tree
// into an obs.ReqTrace carried on the request context, echoes the id on
// the X-Trace-Id response header (shed and drain responses included),
// stores the finished trace for GET /debug/trace/<id>, and writes one
// structured JSON access-log line. On a coordinator the stored trace
// also holds the imported shard fragments: one cross-process timeline.

import (
	"net/http"
	"time"

	"mint/internal/obs"
)

// statusWriter captures the response status for the access log and the
// root span without changing handler behavior.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
	w.ResponseWriter.WriteHeader(c)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Status returns the written status code (200 when the handler never
// set one explicitly).
func (w *statusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// beginTrace resolves the request's trace identity, opens the root
// span, stamps the X-Trace-Id response header, and rebinds the request
// context to carry the ReqTrace. The header is written before any
// outcome is decided, so shed and drain responses carry the id too.
func beginTrace(w http.ResponseWriter, r *http.Request, root string) (*obs.ReqTrace, *statusWriter, *http.Request) {
	tc, parent := obs.TraceFromRequest(r)
	rt := obs.NewReqTrace(tc, root, parent)
	w.Header().Set("X-Trace-Id", tc.TraceID)
	sw := &statusWriter{ResponseWriter: w}
	return rt, sw, r.WithContext(obs.WithReqTrace(r.Context(), rt))
}

// echoTraceID stamps the trace identity on responses outside the
// instrumented ladder (health probes), so a client request id is echoed
// everywhere — drain-time 503s included.
func echoTraceID(w http.ResponseWriter, r *http.Request) {
	tc, _ := obs.TraceFromRequest(r)
	w.Header().Set("X-Trace-Id", tc.TraceID)
}

// finishTrace closes the root span, retains the trace for
// /debug/trace/<id>, and writes the access-log line.
func (f *Front) finishTrace(rt *obs.ReqTrace, route string, status int, start time.Time) {
	rt.Finish()
	f.traces.Add(rt.TraceID(), rt.Spans())
	f.alog.Log(obs.AccessRecord{
		TraceID:   rt.TraceID(),
		Route:     route,
		Status:    status,
		Priority:  rt.Attr("priority"),
		Outcome:   traceOutcome(status, rt),
		Shed:      status == http.StatusTooManyRequests,
		Degraded:  rt.Attr("degraded") != "",
		Partial:   rt.Attr("partial") != "",
		Truncated: rt.Attr("truncated") != "",
		WallMS:    float64(time.Since(start).Microseconds()) / 1000,
	})
}

// traceOutcome derives the access-log outcome: an explicit handler
// annotation wins, otherwise the status class decides.
func traceOutcome(status int, rt *obs.ReqTrace) string {
	if o := rt.Attr("outcome"); o != "" {
		return o
	}
	switch {
	case status == http.StatusTooManyRequests:
		return "shed"
	case status >= 200 && status < 300:
		return "ok"
	case status >= 400 && status < 500:
		return "bad_request"
	default:
		return "error"
	}
}

// handleTraceDump serves one stored trace as a Chrome trace_event JSON
// document (load it in chrome://tracing or ui.perfetto.dev).
func (f *Front) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	spans := f.traces.Get(r.PathValue("id"))
	if len(spans) == 0 {
		WriteError(w, http.StatusNotFound, "unknown trace id", 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, spans) //nolint:errcheck // client gone = nothing to do
}
