package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mint/internal/obs"
)

// TestCountExplainTree: a count with "explain": true returns the inline
// span tree covering the request ladder, and the trace id on the wire
// matches the X-Trace-Id header.
func TestCountExplainTree(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	var out CountResponse
	status, hdr := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Explain: true}, &out)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if out.TraceID == "" || out.TraceID != hdr.Get("X-Trace-Id") {
		t.Fatalf("trace id body %q vs header %q", out.TraceID, hdr.Get("X-Trace-Id"))
	}
	if out.Explain == nil {
		t.Fatal("explain tree missing")
	}
	if out.Explain.Name != "http.count" {
		t.Fatalf("explain root %q", out.Explain.Name)
	}
	names := map[string]bool{}
	var walk func(n *obs.ExplainNode)
	walk = func(n *obs.ExplainNode) {
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(out.Explain)
	for _, want := range []string{"admission.wait", "registry.checkout", "breaker.decision", "mine"} {
		if !names[want] {
			t.Errorf("explain tree missing %q span (have %v)", want, names)
		}
	}
	if out.Explain.Attrs["engine"] == "" {
		t.Fatalf("root span should carry the engine decision, got %v", out.Explain.Attrs)
	}
	// The engine's spans hang under the request's mine span.
	mine := findExplain(out.Explain, "mine")
	for _, want := range []string{"mackey.mine_parallel", "mackey.worker"} {
		if findExplain(mine, want) == nil {
			t.Errorf("mine span has no %q child", want)
		}
	}
}

// findExplain returns the first node named name in n's subtree (nil
// when there is none).
func findExplain(n *obs.ExplainNode, name string) *obs.ExplainNode {
	if n == nil || n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := findExplain(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestRequestIDHonored: an X-Request-ID shapes the trace id and is
// echoed on success, shed, and draining responses alike.
func TestRequestIDHonored(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)

	post := func(reqID string) (*http.Response, CountResponse) {
		t.Helper()
		body, _ := json.Marshal(CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/count", bytes.NewReader(body))
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out CountResponse
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // error bodies differ
		return resp, out
	}

	hexID := strings.Repeat("ab", 16)
	resp, out := post(hexID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != hexID {
		t.Fatalf("32-hex request id not used directly: got %q", got)
	}
	if out.TraceID != hexID {
		t.Fatalf("body trace id %q", out.TraceID)
	}

	// Arbitrary ids hash deterministically.
	r1, _ := post("my-request-7")
	r2, _ := post("my-request-7")
	if r1.Header.Get("X-Trace-Id") != r2.Header.Get("X-Trace-Id") {
		t.Fatal("same X-Request-ID produced different trace ids")
	}

	// Draining 503s still echo the id.
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = post(hexID)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != hexID {
		t.Fatalf("draining 503 lost the trace id: %q", got)
	}
}

// TestTraceDumpEndpoint: after a traced request, GET /debug/trace/<id>
// returns a valid Chrome trace holding the request's spans.
func TestTraceDumpEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	var out CountResponse
	status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta}, &out)
	if status != http.StatusOK || out.TraceID == "" {
		t.Fatalf("count: status %d trace %q", status, out.TraceID)
	}
	resp, err := http.Get(ts.URL + "/debug/trace/" + out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace dump status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v", err)
	}
	var sawRoot, sawMine bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "http.count":
			sawRoot = true
		case "mine":
			sawMine = true
		}
	}
	if !sawRoot || !sawMine {
		t.Fatalf("trace missing expected spans (root %v, mine %v)", sawRoot, sawMine)
	}

	if resp, err := http.Get(ts.URL + "/debug/trace/" + strings.Repeat("0", 32)); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace id: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestServerMetricsEndpoint: the worker's own mux serves valid
// Prometheus text including the live gauges the /debug/vars view also
// carries (same instrument keys by construction).
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.New("mintd")
	_, ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.Obs = reg
		cfg.RegistryMaxBytes = 1 << 30
	})
	var out CountResponse
	if status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta}, &out); status != http.StatusOK {
		t.Fatalf("count status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if _, err := obs.LintPrometheus(text); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	for _, want := range []string{
		"mintd_registry_bytes",
		"mintd_registry_max_bytes 1073741824",
		"mintd_admission_queued",
		`mintd_server_workload_requests{dataset="g1",motif="M1"}`,
		"# TYPE mintd_http_count_latency_ns histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The labeled key renders identically in the expvar view: same
	// instrument, two exposition formats.
	snap := reg.Snapshot()
	if _, ok := snap.Counters[obs.Labeled("server.workload.requests", "dataset", "g1", "motif", "M1")]; !ok {
		t.Fatal("labeled workload counter missing from the registry snapshot")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: handler goroutines write
// access-log lines concurrently with the test's read.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogMarkers: the structured access log records trace id,
// route, priority, and outcome for each request.
func TestAccessLogMarkers(t *testing.T) {
	var logBuf syncBuffer
	_, ts, _ := newTestServer(t, func(cfg *Config) { cfg.AccessLog = &logBuf })
	var out CountResponse
	if status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Priority: "high"}, &out); status != http.StatusOK {
		t.Fatalf("count status %d", status)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one access-log line, got %d", len(lines))
	}
	var rec obs.AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log not JSON: %v", err)
	}
	if rec.TraceID != out.TraceID || rec.Route != "count" || rec.Priority != "high" || rec.Outcome != "ok" {
		t.Fatalf("access record mismatch: %+v (trace %q)", rec, out.TraceID)
	}
}

// TestBatchExplainNamesKernels: a batch with M4 names the star kernel
// on its mine span for "explain", the kernel's work shows in /metrics
// under kernel.* (never mackey.nodes_expanded), and a batch without a
// star carries no kernels attribute.
func TestBatchExplainNamesKernels(t *testing.T) {
	reg := obs.New("mintd")
	_, ts, _ := newTestServer(t, func(cfg *Config) { cfg.Obs = reg })
	mineSpan := func(motifs ...string) *obs.ExplainNode {
		t.Helper()
		var out CountResponse
		if status, _ := postJSON(t, ts.URL+"/v1/count",
			CountRequest{Dataset: "g1", Motifs: motifs, DeltaSeconds: testDelta, Explain: true}, &out); status != http.StatusOK || !out.Exact {
			t.Fatalf("batch %v: status %d, exact %v", motifs, status, out.Exact)
		}
		sp := findExplain(out.Explain, "mine.batch")
		if sp == nil {
			t.Fatalf("batch %v: no mine.batch span in the explain tree", motifs)
		}
		return sp
	}
	sp := mineSpan("M1", "M4")
	if k := sp.Attrs["kernels"]; k != "M4" {
		t.Fatalf("M1+M4 batch: kernels attribute %q, want \"M4\"", k)
	}
	// The co-miner's group span hangs under the request's mine.batch
	// span, and the star kernel's run span under its group's.
	grp := findExplain(sp, "comine.group")
	if grp == nil {
		t.Fatal("M1+M4 batch: mine.batch span has no comine.group child")
	}
	if findExplain(grp, "mackey.kernel") == nil {
		t.Error("M1+M4 batch: comine.group span has no mackey.kernel child")
	}
	if k, ok := mineSpan("M1", "M2").Attrs["kernels"]; ok {
		t.Fatalf("M1+M2 batch: kernels attribute %q, want none", k)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.LintPrometheus(buf.String()); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	for _, want := range []string{"mintd_kernel_runs 1", "mintd_kernel_edges "} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
