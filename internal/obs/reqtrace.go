package obs

// Per-request distributed tracing. A ReqTrace records the spans of one
// request inside one process (coordinator or shard); spans carry
// absolute unix-nanosecond timestamps so fragments from different
// processes on the same box can be merged into a single timeline. The
// coordinator imports shard fragments (piggybacked on shard responses),
// stores the merged set in a TraceStore keyed by trace id, and serves
// it as a Chrome trace from /debug/trace/<id> or as an inline explain
// tree when the request asked for one.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span is one named interval of a distributed trace. ParentID links
// spans into a tree across process boundaries: a shard's root span
// names the coordinator's per-shard call span as its parent.
type Span struct {
	Name     string `json:"name"`
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Proc labels the process the span ran in ("" = the process that
	// assembled the trace; the coordinator stamps shard URLs here).
	Proc string `json:"proc,omitempty"`
	// Worker is the logical thread within the process (Chrome tid).
	Worker int32 `json:"worker,omitempty"`
	// StartUnixNS is the span start as absolute unix nanoseconds —
	// comparable across processes up to host clock skew.
	StartUnixNS int64 `json:"start_unix_ns"`
	DurNS       int64 `json:"dur_ns"`
	// Attrs carries span-scoped decisions: outcome, engine, retry and
	// hedge counts, breaker verdicts, budget splits.
	Attrs map[string]string `json:"attrs,omitempty"`
}

// ReqTrace accumulates the spans of a single request. Safe for
// concurrent use (fan-out goroutines record shard-call spans in
// parallel) and on a nil receiver (tracing disabled).
type ReqTrace struct {
	mu    sync.Mutex
	tc    TraceContext
	root  Span
	done  bool
	spans []Span
}

// NewReqTrace starts recording a request under tc, with a root span
// named name whose parent is the client's span id (empty when the
// client sent no trace context).
func NewReqTrace(tc TraceContext, name, parentID string) *ReqTrace {
	return &ReqTrace{
		tc: tc,
		root: Span{
			Name: name, TraceID: tc.TraceID, SpanID: tc.SpanID,
			ParentID: parentID, StartUnixNS: time.Now().UnixNano(),
		},
	}
}

// TraceID returns the request's trace id ("" on nil).
func (rt *ReqTrace) TraceID() string {
	if rt == nil {
		return ""
	}
	return rt.tc.TraceID
}

// RootID returns the root span's id ("" on nil) — the parent for
// request-level child spans.
func (rt *ReqTrace) RootID() string {
	if rt == nil {
		return ""
	}
	return rt.tc.SpanID
}

// SpanRef is an open span started by Begin; End closes it.
type SpanRef struct {
	rt    *ReqTrace
	span  Span
	start time.Time
}

// Begin opens a child span under parentID (use RootID for top-level
// children). Returns a ref whose End records the span; nil-safe.
func (rt *ReqTrace) Begin(name, parentID string) *SpanRef {
	if rt == nil {
		return nil
	}
	return &SpanRef{
		rt: rt,
		span: Span{
			Name: name, TraceID: rt.tc.TraceID, SpanID: NewSpanID(),
			ParentID: parentID, StartUnixNS: time.Now().UnixNano(),
		},
		start: time.Now(),
	}
}

// ID returns the span's id ("" on nil) — used as the parent of nested
// spans and as the span id propagated to a downstream process.
func (s *SpanRef) ID() string {
	if s == nil {
		return ""
	}
	return s.span.SpanID
}

// Set attaches an attribute to the open span; nil-safe.
func (s *SpanRef) Set(k, v string) {
	if s == nil {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[k] = v
}

// Record records a closed child span of s: name ran on worker (the
// Chrome tid) from start for dur. Engines call it with the request's
// open mine span as s; nil-safe, and safe for concurrent use.
func (s *SpanRef) Record(name string, worker int32, start time.Time, dur time.Duration) {
	if s == nil {
		return
	}
	s.rt.record(Span{
		Name: name, TraceID: s.span.TraceID, SpanID: NewSpanID(), ParentID: s.span.SpanID,
		Worker: worker, StartUnixNS: start.UnixNano(), DurNS: dur.Nanoseconds(),
	})
}

// Begin opens a child span of s that runs on worker (the Chrome tid),
// so engines can nest their own spans under a stage of the run;
// nil-safe.
func (s *SpanRef) Begin(name string, worker int32) *SpanRef {
	if s == nil {
		return nil
	}
	c := s.rt.Begin(name, s.span.SpanID)
	c.span.Worker = worker
	return c
}

// End closes the span and records it on the request trace; nil-safe.
func (s *SpanRef) End() {
	if s == nil {
		return
	}
	s.span.DurNS = time.Since(s.start).Nanoseconds()
	s.rt.record(s.span)
}

func (rt *ReqTrace) record(sp Span) {
	rt.mu.Lock()
	rt.spans = append(rt.spans, sp)
	rt.mu.Unlock()
}

// Annotate attaches an attribute to the request's root span; nil-safe.
// Handlers use it for request-level decisions (priority, outcome,
// degraded/partial markers) that the access log and explain tree
// surface.
func (rt *ReqTrace) Annotate(k, v string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	if rt.root.Attrs == nil {
		rt.root.Attrs = make(map[string]string, 8)
	}
	rt.root.Attrs[k] = v
	rt.mu.Unlock()
}

// Attr reads a root-span attribute ("" when absent); nil-safe.
func (rt *ReqTrace) Attr(k string) string {
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.root.Attrs[k]
}

// Import merges spans from another process (a shard trace fragment),
// stamping proc on any span that does not already carry a process
// label. Spans with a foreign trace id are dropped.
func (rt *ReqTrace) Import(spans []Span, proc string) {
	if rt == nil {
		return
	}
	for _, sp := range spans {
		if sp.TraceID != rt.TraceID() {
			continue
		}
		if sp.Proc == "" {
			sp.Proc = proc
		}
		rt.record(sp)
	}
}

// Finish closes the root span. Further Spans calls return the final
// set. Idempotent; nil-safe.
func (rt *ReqTrace) Finish() {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	if !rt.done {
		rt.root.DurNS = time.Now().UnixNano() - rt.root.StartUnixNS
		rt.done = true
	}
	rt.mu.Unlock()
}

// Spans returns all recorded spans, root first, sorted by start time
// within each parent. Before Finish the root span is provisional (its
// duration covers start→now) so fragments can be exported mid-request.
func (rt *ReqTrace) Spans() []Span {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	root := rt.root
	if !rt.done {
		root.DurNS = time.Now().UnixNano() - root.StartUnixNS
	}
	if root.Attrs != nil {
		attrs := make(map[string]string, len(root.Attrs))
		for k, v := range root.Attrs {
			attrs[k] = v
		}
		root.Attrs = attrs
	}
	out := make([]Span, 0, len(rt.spans)+1)
	out = append(out, root)
	out = append(out, rt.spans...)
	rt.mu.Unlock()
	sort.SliceStable(out[1:], func(i, j int) bool {
		return out[1+i].StartUnixNS < out[1+j].StartUnixNS
	})
	return out
}

// ExplainNode is one node of the human-readable span tree returned by
// an "explain": true request: name, where it ran, when (relative to the
// trace start) and for how long, the decisions made in it, and its
// children.
type ExplainNode struct {
	Name     string            `json:"name"`
	Proc     string            `json:"proc,omitempty"`
	StartMS  float64           `json:"start_ms"`
	DurMS    float64           `json:"dur_ms"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*ExplainNode    `json:"children,omitempty"`
}

// BuildExplain links spans into a tree by ParentID. Spans whose parent
// is absent from the set (the request root, or orphaned fragments)
// become top-level nodes; with exactly one such node it is returned
// directly, otherwise a synthetic "trace" node wraps them.
func BuildExplain(spans []Span) *ExplainNode {
	if len(spans) == 0 {
		return nil
	}
	var t0 int64 = spans[0].StartUnixNS
	for _, sp := range spans {
		if sp.StartUnixNS < t0 {
			t0 = sp.StartUnixNS
		}
	}
	nodes := make(map[string]*ExplainNode, len(spans))
	for _, sp := range spans {
		if _, dup := nodes[sp.SpanID]; dup {
			continue
		}
		nodes[sp.SpanID] = &ExplainNode{
			Name: sp.Name, Proc: sp.Proc,
			StartMS: float64(sp.StartUnixNS-t0) / 1e6,
			DurMS:   float64(sp.DurNS) / 1e6,
			Attrs:   sp.Attrs,
		}
	}
	var roots []*ExplainNode
	attached := make(map[string]bool, len(spans))
	for _, sp := range spans {
		n := nodes[sp.SpanID]
		if n == nil || attached[sp.SpanID] {
			continue
		}
		attached[sp.SpanID] = true
		if parent, ok := nodes[sp.ParentID]; ok && sp.ParentID != sp.SpanID {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortExplain(roots)
	if len(roots) == 1 {
		return roots[0]
	}
	return &ExplainNode{Name: "trace", Children: roots}
}

func sortExplain(nodes []*ExplainNode) {
	sort.SliceStable(nodes, func(i, j int) bool {
		return nodes[i].StartMS < nodes[j].StartMS
	})
	for _, n := range nodes {
		sortExplain(n.Children)
	}
}

// TraceStore retains the spans of recently completed requests, keyed by
// trace id, with bounded memory (oldest-trace eviction). Adding spans
// for an existing id merges them — late shard fragments land in the
// same trace.
type TraceStore struct {
	mu     sync.Mutex
	cap    int
	traces map[string][]Span
	order  []string // insertion order for eviction
}

// NewTraceStore creates a store retaining up to capacity traces
// (minimum 8).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 8 {
		capacity = 8
	}
	return &TraceStore{cap: capacity, traces: make(map[string][]Span)}
}

// Add merges spans into the trace with the given id; nil-safe.
func (ts *TraceStore) Add(traceID string, spans []Span) {
	if ts == nil || traceID == "" || len(spans) == 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.traces[traceID]; !ok {
		for len(ts.order) >= ts.cap {
			delete(ts.traces, ts.order[0])
			ts.order = ts.order[1:]
		}
		ts.order = append(ts.order, traceID)
	}
	ts.traces[traceID] = append(ts.traces[traceID], spans...)
}

// Get returns the spans of a stored trace (nil when unknown).
func (ts *TraceStore) Get(traceID string) []Span {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	spans := ts.traces[traceID]
	out := make([]Span, len(spans))
	copy(out, spans)
	return out
}

// WriteChromeTrace writes spans in the Chrome trace_event JSON format
// (loadable in chrome://tracing and https://ui.perfetto.dev): one
// complete ("X") event per span with microsecond timestamps rebased to
// the earliest span, the worker id as the thread id, and processes named
// by their Proc label (pid 1 = the local process).
func WriteChromeTrace(w io.Writer, spans []Span) error {
	var t0 int64
	procs := map[string]int{"": 1}
	procOrder := []string{""}
	for i, sp := range spans {
		if i == 0 || sp.StartUnixNS < t0 {
			t0 = sp.StartUnixNS
		}
		if _, ok := procs[sp.Proc]; !ok {
			procs[sp.Proc] = len(procs) + 1
			procOrder = append(procOrder, sp.Proc)
		}
	}
	// A bufio.Writer's first error sticks, so Flush reports it.
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, proc := range procOrder {
		name := proc
		if name == "" {
			name = "local"
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`,
			procs[proc], strconv.Quote(name))
	}
	for _, sp := range spans {
		fmt.Fprintf(bw,
			`,{"name":%s,"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"span_id":%s,"parent_id":%s%s}}`,
			strconv.Quote(sp.Name), procs[sp.Proc], sp.Worker,
			formatMicros(sp.StartUnixNS-t0), formatMicros(sp.DurNS),
			strconv.Quote(sp.SpanID), strconv.Quote(sp.ParentID),
			attrArgs(sp.Attrs))
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// formatMicros renders ns as a decimal microsecond count ("12.345").
func formatMicros(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
}

// attrArgs renders span attrs as extra JSON object members (",k":"v"...)
// in sorted key order.
func attrArgs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		b = append(b, ',')
		b = strconv.AppendQuote(b, k)
		b = append(b, ':')
		b = strconv.AppendQuote(b, attrs[k])
	}
	return string(b)
}

// reqTraceKey is the context key carrying the request's ReqTrace.
type reqTraceKey struct{}

// WithReqTrace returns a context carrying rt.
func WithReqTrace(ctx context.Context, rt *ReqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// ReqTraceFrom extracts the request's ReqTrace (nil when absent — all
// ReqTrace methods tolerate nil, so handlers use it unconditionally).
func ReqTraceFrom(ctx context.Context) *ReqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}
