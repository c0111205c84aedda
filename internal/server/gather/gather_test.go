package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mint"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/server/registry"
	"mint/internal/shard"
	"mint/internal/testutil"
)

// Fixture: worker mintd processes as httptest servers over map-backed
// loaders, a coordinator fanned out over them, and the single-process
// oracle to diff merged answers against.

const testDelta = 500

func testGraph() *mint.Graph {
	return testutil.RandomGraph(rand.New(rand.NewSource(1)), 20, 500, 2000)
}

func graphLoader(graphs map[string]*mint.Graph) registry.Loader {
	return func(_ context.Context, name string) (*mint.Graph, error) {
		g, ok := graphs[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", server.ErrUnknownDataset, name)
		}
		return g, nil
	}
}

// newWorker starts one worker mintd over the given graphs.
func newWorker(t *testing.T, graphs map[string]*mint.Graph, mutate func(*server.Config)) (*server.Server, *httptest.Server) {
	t.Helper()
	cfg := server.Config{
		Loader: graphLoader(graphs),
		Caps:   runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newCoordinator builds a Coordinator over the shard URLs and serves it.
func newCoordinator(t *testing.T, shards []string, mutate func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Shards: shards,
		Caps:   runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func postJSON(t *testing.T, url string, req, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// TestHealthyMergeBitIdentical is the differential core: a 3-shard
// healthy cluster must merge every count bit-identically to the
// single-process oracle across M1–M4 and three δ values, with the
// merged response claiming exactness and nothing else.
func TestHealthyMergeBitIdentical(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
	}
	_, cts := newCoordinator(t, urls, nil)

	for _, delta := range []mint.Timestamp{100, 500, 1500} {
		for _, m := range mint.EvaluationMotifs(delta) {
			want := mint.Count(g, m)
			var resp server.CountResponse
			status, _ := postJSON(t, cts.URL+"/v1/count",
				server.CountRequest{Dataset: "g", Motif: m.Name, DeltaSeconds: int64(delta)}, &resp)
			if status != http.StatusOK {
				t.Fatalf("δ=%d %s: status %d, want 200", delta, m.Name, status)
			}
			if !resp.Exact || resp.Degraded || resp.Truncated || resp.Partial != nil {
				t.Fatalf("δ=%d %s: markers %+v, want pure exact", delta, m.Name, resp)
			}
			if resp.Engine != mint.EngineExact {
				t.Errorf("δ=%d %s: engine %q, want %q", delta, m.Name, resp.Engine, mint.EngineExact)
			}
			if int64(resp.Count) != want || resp.ExactPartial != want {
				t.Errorf("δ=%d %s: merged count %v (partial %d), oracle %d",
					delta, m.Name, resp.Count, resp.ExactPartial, want)
			}
		}
	}
}

// TestMergedEnumerationPreservesGlobalOrder pages through the merged
// enumeration with a small limit and requires the concatenated pages to
// reproduce the single-process stream exactly — ordering across shard
// boundaries included.
func TestMergedEnumerationPreservesGlobalOrder(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
	}
	_, cts := newCoordinator(t, urls, nil)

	m := mint.M2(testDelta)
	var oracle [][]int32
	mint.Enumerate(g, m, func(edges []int32) {
		oracle = append(oracle, append([]int32(nil), edges...))
	})
	if len(oracle) < 10 {
		t.Fatalf("fixture too small: oracle has %d matches", len(oracle))
	}

	var merged [][]int32
	token := ""
	for pages := 0; ; pages++ {
		if pages > len(oracle) {
			t.Fatal("pagination did not terminate")
		}
		var resp server.EnumerateResponse
		status, _ := postJSON(t, cts.URL+"/v1/enumerate", server.EnumerateRequest{
			Dataset: "g", Motif: "M2", DeltaSeconds: testDelta, Limit: 7, PageToken: token,
		}, &resp)
		if status != http.StatusOK {
			t.Fatalf("page %d: status %d", pages, status)
		}
		if resp.Truncated {
			t.Fatalf("page %d truncated: %s", pages, resp.StopReason)
		}
		merged = append(merged, resp.Matches...)
		if resp.NextPageToken == "" {
			break
		}
		token = resp.NextPageToken
	}
	if !reflect.DeepEqual(merged, oracle) {
		t.Fatalf("merged enumeration diverges from oracle: got %d matches, want %d (first diff at %d)",
			len(merged), len(oracle), firstDiff(merged, oracle))
	}
}

func firstDiff(a, b [][]int32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return n
}

// TestSlicedWorkersMergeExact runs workers that each hold only their
// δ-aware slice (shard.Slice of the plan's DataRange) and a coordinator
// in Sliced mode: merged counts must still equal the full-graph oracle.
func TestSlicedWorkersMergeExact(t *testing.T) {
	g := testGraph()
	delta := mint.Timestamp(500)
	p := shard.PlanForGraph(g, 3, delta)
	if p.NumShards() != 3 {
		t.Fatalf("fixture: plan merged to %d shards, want 3", p.NumShards())
	}
	var urls []string
	for i := 0; i < p.NumShards(); i++ {
		sub, _, err := shard.Slice(g, p.DataRange(i))
		if err != nil {
			t.Fatal(err)
		}
		_, ts := newWorker(t, map[string]*mint.Graph{"g": sub}, nil)
		urls = append(urls, ts.URL)
	}
	_, cts := newCoordinator(t, urls, func(cfg *Config) { cfg.Sliced = true })

	for _, m := range mint.EvaluationMotifs(delta) {
		want := mint.Count(g, m)
		var resp server.CountResponse
		status, _ := postJSON(t, cts.URL+"/v1/count",
			server.CountRequest{Dataset: "g", Motif: m.Name, DeltaSeconds: int64(delta)}, &resp)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", m.Name, status)
		}
		if !resp.Exact || resp.Partial != nil {
			t.Fatalf("%s: markers %+v, want exact", m.Name, resp)
		}
		if int64(resp.Count) != want {
			t.Errorf("%s: sliced merge %v, oracle %d", m.Name, resp.Count, want)
		}
	}

	// Sliced deployments cannot enumerate (slice-local edge IDs): the
	// refusal must be loud, not a wrong page.
	status, _ := postJSON(t, cts.URL+"/v1/enumerate",
		server.EnumerateRequest{Dataset: "g", Motif: "M1", DeltaSeconds: int64(delta), Limit: 5}, nil)
	if status != http.StatusNotImplemented {
		t.Fatalf("sliced enumerate: status %d, want 501", status)
	}
}

// TestFingerprintMismatchRefusesMerge gives two workers different data
// under one dataset name: the coordinator must refuse with 502, never
// sum counts from divergent datasets.
func TestFingerprintMismatchRefusesMerge(t *testing.T) {
	g1 := testutil.RandomGraph(rand.New(rand.NewSource(1)), 20, 500, 2000)
	g2 := testutil.RandomGraph(rand.New(rand.NewSource(2)), 20, 500, 2000)
	_, ts1 := newWorker(t, map[string]*mint.Graph{"g": g1}, nil)
	_, ts2 := newWorker(t, map[string]*mint.Graph{"g": g2}, nil)
	_, cts := newCoordinator(t, []string{ts1.URL, ts2.URL}, nil)

	var er server.ErrorResponse
	status, _ := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, &er)
	if status != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (got %q)", status, er.Error)
	}
}

// TestHedgedRequestBeatsStraggler stalls the first count a worker sees;
// with hedging enabled the duplicate copy answers and the client sees
// an exact response long before the straggler would have returned.
func TestHedgedRequestBeatsStraggler(t *testing.T) {
	g := testGraph()
	_, ts := newWorker(t, map[string]*mint.Graph{"g": g}, nil)
	const stall = 2 * time.Second
	var firstCount atomic.Bool
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/count" && firstCount.CompareAndSwap(false, true) {
			time.Sleep(stall) // straggler: first copy hangs, hedge wins
		}
		// Re-issue against the real worker.
		req, err := http.NewRequestWithContext(r.Context(), r.Method, ts.URL+r.URL.Path, r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		w.Write(buf.Bytes())    //nolint:errcheck
	}))
	t.Cleanup(wrapped.Close)

	_, cts := newCoordinator(t, []string{wrapped.URL}, func(cfg *Config) {
		cfg.HedgeAfter = 100 * time.Millisecond
	})
	want := mint.Count(g, mint.M1(testDelta))
	begin := time.Now()
	var resp server.CountResponse
	status, _ := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, &resp)
	elapsed := time.Since(begin)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !resp.Exact || int64(resp.Count) != want {
		t.Fatalf("hedged response %+v, want exact count %d", resp, want)
	}
	if elapsed >= stall {
		t.Fatalf("response took %v — the hedge never fired (stall %v)", elapsed, stall)
	}
}

// TestRetryAfterPropagatesWorstShard has every shard shedding with a
// 30s hint: the coordinator's 503 must carry at least that — telling
// the client "come back in 1s" when the shards said 30 would just
// bounce it off the same wall.
func TestRetryAfterPropagatesWorstShard(t *testing.T) {
	g := testGraph()
	info := server.DatasetInfoResponse{
		Dataset: "g", Nodes: g.NumNodes(), Edges: g.NumEdges(),
		MinTS: int64(g.Edges[0].Time), MaxTS: int64(g.Edges[g.NumEdges()-1].Time),
		Fingerprint: shard.Fingerprint(g),
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/datasetinfo":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(info) //nolint:errcheck
		case "/v1/count":
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{ //nolint:errcheck
				Error: "admission queue full", RetryAfterSeconds: 30,
			})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(stub.Close)

	_, cts := newCoordinator(t, []string{stub.URL}, func(cfg *Config) { cfg.MaxAttempts = 1 })
	var er server.ErrorResponse
	status, hdr := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, &er)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%q)", status, er.Error)
	}
	if er.RetryAfterSeconds < 30 {
		t.Fatalf("retry_after_seconds = %d, want >= 30 (worst shard hint)", er.RetryAfterSeconds)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After header")
	}
}

// TestCoordinatorMaxBodyBytes: the coordinator bounds request bodies
// with its own MaxBodyBytes (mintd -max-body-bytes), as a worker does.
// A 2 KiB body against a 1 KiB bound is a 413 on every body-carrying
// route, while a small request still merges.
func TestCoordinatorMaxBodyBytes(t *testing.T) {
	_, ts := newWorker(t, map[string]*mint.Graph{"g": testGraph()}, nil)
	_, cts := newCoordinator(t, []string{ts.URL}, func(cfg *Config) { cfg.MaxBodyBytes = 1 << 10 })
	big := server.CountRequest{Dataset: "g", MotifSpec: strings.Repeat(" ", 2<<10)}
	for _, path := range []string{"/v1/count", "/v1/enumerate", "/v1/profile", "/v1/datasetinfo"} {
		if status, _ := postJSON(t, cts.URL+path, big, nil); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 KiB body: status %d, want 413", path, status)
		}
	}
	var resp server.CountResponse
	status, _ := postJSON(t, cts.URL+"/v1/count", server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, &resp)
	if status != http.StatusOK || !resp.Exact {
		t.Fatalf("small count: status %d, %+v", status, resp)
	}
}

// TestCoordinatorRefusesWithoutFanOut: a request the route layer or the
// coordinator's own limits refuse — a bad motif, spec or motif list, a
// batch+motif conflict, supervised, a client root window — answers 400
// from the coordinator itself, without planning or a single shard call.
func TestCoordinatorRefusesWithoutFanOut(t *testing.T) {
	reg := obs.New("worker")
	_, ts := newWorker(t, map[string]*mint.Graph{"g": testGraph()}, func(cfg *server.Config) { cfg.Obs = reg })
	_, cts := newCoordinator(t, []string{ts.URL}, nil)
	for name, req := range map[string]server.CountRequest{
		"unknown motif":    {Dataset: "g", Motif: "M9"},
		"bad spec":         {Dataset: "g", MotifSpec: "A->"},
		"bad batch member": {Dataset: "g", Motifs: []string{"M1", "M9"}},
		"batch and motif":  {Dataset: "g", Motifs: []string{"M1", "M2"}, Motif: "M3"},
		"supervised":       {Dataset: "g", Motif: "M1", Supervised: true},
		"root window":      {Dataset: "g", Motif: "M1", RootWindow: &server.TimeWindow{StartTS: 0, EndTS: 100}},
	} {
		var er server.ErrorResponse
		if status, _ := postJSON(t, cts.URL+"/v1/count", req, &er); status != http.StatusBadRequest || er.Error == "" {
			t.Errorf("%s: status %d (%q), want 400 with a reason", name, status, er.Error)
		}
	}
	for _, name := range []string{"http.count.requests", "http.datasetinfo.requests"} {
		if n := reg.Counter(name).Value(); n != 0 {
			t.Errorf("worker %s = %d, want 0: the coordinator fanned out a request it must refuse", name, n)
		}
	}
}
