package gather

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mint"
	"mint/internal/obs"
	"mint/internal/server"
)

// syncLog is a mutex-guarded buffer: access-log writes come from
// handler goroutines.
type syncLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLog) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLog) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMergedDistributedTrace is the tentpole's acceptance check: one
// request through a 3-shard coordinator must yield a single merged
// Chrome trace — the coordinator's fan-out spans and every shard's
// request spans under one trace id — plus the inline explain tree when
// asked.
func TestMergedDistributedTrace(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
	}
	_, cts := newCoordinator(t, urls, nil)

	var out server.CountResponse
	status, hdr := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta, Explain: true}, &out)
	if status != http.StatusOK {
		t.Fatalf("count status %d", status)
	}
	if out.TraceID == "" || out.TraceID != hdr.Get("X-Trace-Id") {
		t.Fatalf("trace id body %q header %q", out.TraceID, hdr.Get("X-Trace-Id"))
	}
	if len(out.TraceFrag) != 0 {
		t.Fatal("merged client response must not leak raw shard trace frags")
	}

	// Inline explain: the coordinator root, its per-shard call spans,
	// and under each call span the shard's own request tree.
	if out.Explain == nil || out.Explain.Name != "gather.count" {
		t.Fatalf("explain root = %+v", out.Explain)
	}
	var calls, shardRoots, shardMines int
	var walk func(n *obs.ExplainNode, underCall bool)
	walk = func(n *obs.ExplainNode, underCall bool) {
		switch {
		case n.Name == "shard.call":
			calls++
		case n.Name == "http.count" && underCall:
			shardRoots++
			if n.Proc == "" {
				t.Error("imported shard span lost its proc label")
			}
		case n.Name == "mine":
			shardMines++
			// The shard's engine spans hang under its mine span and
			// carry its proc label.
			engine := map[string]bool{}
			for _, c := range n.Children {
				if c.Proc == "" || c.Proc != n.Proc {
					t.Errorf("engine span %q under a shard mine span: proc %q, want %q", c.Name, c.Proc, n.Proc)
				}
				engine[c.Name] = true
			}
			for _, want := range []string{"mackey.mine_parallel", "mackey.worker"} {
				if !engine[want] {
					t.Errorf("shard %q mine span has no %q child (have %v)", n.Proc, want, engine)
				}
			}
		}
		for _, c := range n.Children {
			walk(c, underCall || n.Name == "shard.call")
		}
	}
	walk(out.Explain, false)
	if calls < 3 {
		t.Fatalf("want ≥3 shard.call spans (3-way fan-out + datasetinfo), got %d", calls)
	}
	if shardRoots != 3 {
		t.Fatalf("want the 3 shard request trees linked under call spans, got %d", shardRoots)
	}
	if shardMines != 3 {
		t.Fatalf("want 3 shard-side mine spans, got %d", shardMines)
	}

	// The merged Chrome trace from the coordinator's debug endpoint:
	// one trace, four processes (coordinator + 3 shards).
	resp, err := http.Get(cts.URL + "/debug/trace/" + out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace dump status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace dump is not Chrome trace JSON: %v", err)
	}
	pids := map[int]bool{}
	spansByName := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		spansByName[ev.Name]++
	}
	if len(pids) != 4 {
		t.Fatalf("merged trace should span 4 processes (coordinator + 3 shards), got %d", len(pids))
	}
	if spansByName["gather.count"] != 1 {
		t.Fatalf("want exactly one coordinator root span, got %d", spansByName["gather.count"])
	}
	if spansByName["http.count"] != 3 || spansByName["mine"] != 3 {
		t.Fatalf("want 3 shard roots + 3 mine spans, got %v", spansByName)
	}
}

// TestCoordinatorMetricsExposition: the coordinator's /metrics output
// lints clean and carries the per-shard labeled series.
func TestCoordinatorMetricsExposition(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
	}
	reg := obs.New("mintd")
	_, cts := newCoordinator(t, urls, func(cfg *Config) { cfg.Obs = reg })

	var out server.CountResponse
	if status, _ := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, &out); status != http.StatusOK {
		t.Fatalf("count status %d", status)
	}
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	text := sb.String()
	if _, err := obs.LintPrometheus(text); err != nil {
		t.Fatalf("coordinator /metrics fails lint: %v\n%s", err, text)
	}
	if !strings.Contains(text, "mintd_gather_count_requests 1") {
		t.Fatalf("per-endpoint counter missing:\n%s", text)
	}
}

// TestAccessLogPartialMarker: a dead shard surfaces as partial=true in
// the coordinator's access log.
func TestAccessLogPartialMarker(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	_, w1 := newWorker(t, graphs, nil)
	_, w2 := newWorker(t, graphs, nil)
	_, dead := newWorker(t, graphs, nil)
	deadURL := dead.URL
	dead.Close()

	var logBuf syncLog
	_, cts := newCoordinator(t, []string{w1.URL, w2.URL, deadURL}, func(cfg *Config) {
		cfg.AccessLog = &logBuf
		cfg.MaxAttempts = 1
	})

	var out server.CountResponse
	status, _ := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, &out)
	if status != http.StatusOK {
		t.Fatalf("count status %d", status)
	}
	if !out.Truncated || out.Partial == nil {
		t.Fatalf("dead shard must make the merge loudly partial: %+v", out)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	var rec obs.AccessRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("access log not JSON: %v", err)
	}
	if !rec.Partial || !rec.Truncated {
		t.Fatalf("access record should mark partial+truncated: %+v", rec)
	}
	if rec.TraceID != out.TraceID {
		t.Fatalf("access record trace %q vs response %q", rec.TraceID, out.TraceID)
	}
}
