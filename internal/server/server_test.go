package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"mint"
	"mint/internal/runctl"
	"mint/internal/server/registry"
	"mint/internal/testutil"
)

// Shared fixture: two small deterministic graphs behind a map-backed
// Loader, so endpoint tests compare against the in-process oracle
// without touching the datasets package.

const testDelta = 500

func testGraphs() map[string]*mint.Graph {
	return map[string]*mint.Graph{
		"g1": testutil.RandomGraph(rand.New(rand.NewSource(1)), 24, 600, 2000),
		"g2": testutil.RandomGraph(rand.New(rand.NewSource(2)), 12, 150, 1500),
	}
}

func graphLoader(graphs map[string]*mint.Graph) registry.Loader {
	return func(_ context.Context, name string) (*mint.Graph, error) {
		g, ok := graphs[name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
		}
		return g, nil
	}
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, map[string]*mint.Graph) {
	t.Helper()
	graphs := testGraphs()
	cfg := Config{
		Loader: graphLoader(graphs),
		Caps:   runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, graphs
}

// postJSON posts req to url and decodes the response body into out
// (which may be nil when only the status matters).
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

func TestCountEndpointExact(t *testing.T) {
	_, ts, graphs := newTestServer(t, nil)
	want := mint.Count(graphs["g1"], mint.M1(testDelta))

	var resp CountResponse
	status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if !resp.Exact || resp.Degraded || resp.Truncated {
		t.Fatalf("markers = %+v, want exact and nothing else", resp)
	}
	if resp.Engine != mint.EngineExact {
		t.Errorf("engine = %q, want %q", resp.Engine, mint.EngineExact)
	}
	if int64(resp.Count) != want {
		t.Errorf("count = %v, want %d", resp.Count, want)
	}
	if resp.ExactPartial != want {
		t.Errorf("exact_partial = %d, want %d", resp.ExactPartial, want)
	}
}

func TestCountEndpointDegradesLoudlyUnderTightBudget(t *testing.T) {
	// A one-node exact budget cannot finish; the response must carry the
	// estimate with degraded=true and the engine named — never a silent
	// partial count presented as the answer.
	_, ts, _ := newTestServer(t, nil)

	var resp CountResponse
	status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, MaxNodes: 1}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if resp.Exact {
		t.Fatal("a MaxNodes=1 request claimed exactness")
	}
	if !resp.Degraded && !resp.Truncated {
		t.Fatalf("inexact answer with no degraded/truncated marker: %+v", resp)
	}
	if resp.Degraded && resp.Engine != mint.EnginePresto {
		t.Errorf("degraded answer names engine %q, want %q", resp.Engine, mint.EnginePresto)
	}
}

func TestEnumeratePaginationCoversAllMatches(t *testing.T) {
	_, ts, graphs := newTestServer(t, nil)
	m := mint.M1(testDelta)
	var want [][]int32
	mint.Enumerate(graphs["g2"], m, func(edges []int32) {
		want = append(want, append([]int32(nil), edges...))
	})
	if len(want) == 0 {
		t.Fatal("oracle found no matches; the test would be vacuous")
	}
	limit := len(want)/3 + 1 // ~4 pages

	var got [][]int32
	token := ""
	for page := 0; ; page++ {
		if page > len(want)+2 {
			t.Fatal("pagination never terminated")
		}
		var resp EnumerateResponse
		status, _ := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{
			Dataset: "g2", Motif: "M1", DeltaSeconds: testDelta,
			Limit: limit, PageToken: token,
		}, &resp)
		if status != http.StatusOK {
			t.Fatalf("page %d: status %d, want 200", page, status)
		}
		if resp.Truncated {
			t.Fatalf("page %d truncated (%s); budget should only stop at page boundaries", page, resp.StopReason)
		}
		if len(resp.Matches) > limit {
			t.Fatalf("page %d has %d matches, limit %d", page, len(resp.Matches), limit)
		}
		got = append(got, resp.Matches...)
		if resp.NextPageToken == "" {
			break
		}
		token = resp.NextPageToken
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paginated enumeration diverged from oracle: got %d matches, want %d", len(got), len(want))
	}
}

func TestEnumerateLimitClamped(t *testing.T) {
	_, ts, _ := newTestServer(t, func(cfg *Config) { cfg.EnumerateMaxLimit = 5 })
	var resp EnumerateResponse
	status, _ := postJSON(t, ts.URL+"/v1/enumerate",
		EnumerateRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Limit: 10_000}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(resp.Matches) > 5 {
		t.Errorf("server returned %d matches past its page cap of 5", len(resp.Matches))
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, ts, graphs := newTestServer(t, nil)
	var resp ProfileResponse
	status, _ := postJSON(t, ts.URL+"/v1/profile",
		ProfileRequest{Dataset: "g2", DeltaSeconds: testDelta}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if len(resp.Profile) != 4 {
		t.Fatalf("profile has %d rows, want 4 (M1..M4)", len(resp.Profile))
	}
	for i, e := range resp.Profile {
		wantName := fmt.Sprintf("M%d", i+1)
		if e.Motif != wantName {
			t.Errorf("row %d motif = %q, want %q", i, e.Motif, wantName)
		}
		if e.Truncated {
			t.Errorf("row %s truncated (%s) on a tiny graph", e.Motif, e.StopReason)
			continue
		}
		m, err := mint.MotifByName(wantName, testDelta)
		if err != nil {
			t.Fatal(err)
		}
		if want := mint.Count(graphs["g2"], m); e.Count != want {
			t.Errorf("%s count = %d, want %d", e.Motif, e.Count, want)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		path string
		body any
	}{
		{"missing dataset", "/v1/count", CountRequest{Motif: "M1"}},
		{"unknown dataset", "/v1/count", CountRequest{Dataset: "nope", Motif: "M1"}},
		{"unknown motif", "/v1/count", CountRequest{Dataset: "g1", Motif: "M9"}},
		{"bad motif spec", "/v1/count", CountRequest{Dataset: "g1", MotifSpec: "not a spec"}},
		{"bad priority", "/v1/count", CountRequest{Dataset: "g1", Motif: "M1", Priority: "urgent"}},
		{"supervised without dir", "/v1/count", CountRequest{Dataset: "g1", Motif: "M1", Supervised: true}},
		{"zero limit", "/v1/enumerate", EnumerateRequest{Dataset: "g1", Motif: "M1"}},
		{"malformed page token", "/v1/enumerate", EnumerateRequest{Dataset: "g1", Motif: "M1", Limit: 5, PageToken: "xyz"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e ErrorResponse
			status, _ := postJSON(t, ts.URL+tc.path, tc.body, &e)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (error %q)", status, e.Error)
			}
			if e.Error == "" {
				t.Error("400 with an empty error message")
			}
		})
	}
}

func TestHealthzReadyzAndDrainFlip(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200 (process is still alive)", got)
	}
	status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1"}, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining /v1/count = %d, want 503", status)
	}
	if err := s.Drain(ctx); err == nil {
		t.Fatal("second Drain succeeded; want an error")
	}
}

func TestChaosTripsBreakerAndNeverLies(t *testing.T) {
	// Every exact attempt hits an injected fault, so responses must come
	// back degraded (estimator salvage) and after Threshold failures the
	// workload breaker must be open, routing to the chaos-free path.
	plan, err := mint.ParseChaosPlan("seed=1,error=1.0,sites=mackey")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, graphs := newTestServer(t, func(cfg *Config) {
		cfg.Chaos = plan
		cfg.Breaker = BreakerConfig{Threshold: 2, Cooldown: time.Minute}
	})
	want := mint.Count(graphs["g1"], mint.M1(testDelta))

	for i := 0; i < 4; i++ {
		var resp CountResponse
		status, _ := postJSON(t, ts.URL+"/v1/count",
			CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta}, &resp)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, status)
		}
		// The honesty contract: an exact claim must match the oracle;
		// anything else must be loudly marked.
		switch {
		case resp.Exact:
			if int64(resp.Count) != want {
				t.Fatalf("request %d: exact=true count=%v, oracle %d", i, resp.Count, want)
			}
		case resp.Degraded:
			if resp.Engine != mint.EnginePresto {
				t.Errorf("request %d: degraded with engine %q", i, resp.Engine)
			}
		case !resp.Truncated:
			t.Fatalf("request %d: inexact, undegraded, untruncated: %+v", i, resp)
		}
	}
	if !s.brk.Open("g1/M1") {
		t.Error("breaker never opened despite every exact attempt faulting")
	}
}

// Batch /v1/count -------------------------------------------------------

// TestCountBatchEndpointExact: a batch request returns one exact entry
// per motif — named motifs then specs, in request order — each
// bit-identical to the single-motif oracle, with the top-level count
// the sum.
func TestCountBatchEndpointExact(t *testing.T) {
	_, ts, graphs := newTestServer(t, nil)
	g := graphs["g1"]
	pingpong, err := mint.ParseMotif("custom0", testDelta, "0->1,1->0")
	if err != nil {
		t.Fatal(err)
	}
	wantM := []*mint.Motif{mint.M1(testDelta), mint.M2(testDelta), pingpong}

	var resp CountResponse
	status, _ := postJSON(t, ts.URL+"/v1/count", CountRequest{
		Dataset: "g1", DeltaSeconds: testDelta,
		Motifs:     []string{"M1", "M2"},
		MotifSpecs: []string{"0->1,1->0"},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if !resp.Exact || resp.Degraded || resp.Truncated {
		t.Fatalf("markers = %+v, want exact and nothing else", resp)
	}
	if len(resp.PerMotif) != 3 {
		t.Fatalf("per_motif has %d entries, want 3", len(resp.PerMotif))
	}
	var sum int64
	for i, e := range resp.PerMotif {
		want := mint.Count(g, wantM[i])
		if e.Count != want {
			t.Errorf("entry %d (%s): count %d, oracle %d", i, e.Motif, e.Count, want)
		}
		if e.Truncated || e.StopReason != "" {
			t.Errorf("entry %d: exact batch carries truncation markers: %+v", i, e)
		}
		if e.Spec != wantM[i].String() {
			t.Errorf("entry %d: spec %q, want %q", i, e.Spec, wantM[i].String())
		}
		sum += e.Count
	}
	if int64(resp.Count) != sum || resp.ExactPartial != sum {
		t.Errorf("top-level count %v / exact_partial %d, want sum %d", resp.Count, resp.ExactPartial, sum)
	}
}

// TestCountBatchSharedBudgetTruncatesLoudly: a MaxNodes cap on a batch
// bounds the WHOLE set, and a stopped batch marks its entries truncated
// with the reason — never silently short.
func TestCountBatchSharedBudgetTruncatesLoudly(t *testing.T) {
	_, ts, graphs := newTestServer(t, nil)
	g := graphs["g1"]

	var resp CountResponse
	status, _ := postJSON(t, ts.URL+"/v1/count", CountRequest{
		Dataset: "g1", DeltaSeconds: testDelta,
		Motifs:   []string{"M1", "M2", "M3", "M4"},
		MaxNodes: 1,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	if resp.Exact || !resp.Truncated || resp.StopReason == "" {
		t.Fatalf("MaxNodes=1 batch not loudly truncated: %+v", resp)
	}
	if resp.Engine != mint.EnginePartial {
		t.Errorf("engine %q, want %q", resp.Engine, mint.EnginePartial)
	}
	for i, e := range resp.PerMotif {
		if !e.Truncated || e.StopReason == "" {
			t.Errorf("entry %d not loudly truncated: %+v", i, e)
		}
		want := mint.Count(g, mint.EvaluationMotifs(testDelta)[i])
		if e.Count > want {
			t.Errorf("entry %d: truncated count %d exceeds oracle %d", i, e.Count, want)
		}
	}
}

// TestCountBatchRejectsConflictsAndBadMotifs: batch mode 400s on
// conflicting single-motif fields, supervised mode, and unparseable
// members.
func TestCountBatchRejectsConflictsAndBadMotifs(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []CountRequest{
		{Dataset: "g1", Motifs: []string{"M1"}, Motif: "M2"},
		{Dataset: "g1", Motifs: []string{"M1"}, MotifSpec: "0->1"},
		{Dataset: "g1", Motifs: []string{"M1"}, Supervised: true},
		{Dataset: "g1", Motifs: []string{"M9"}},
		{Dataset: "g1", MotifSpecs: []string{"0->0"}},
	}
	for i, req := range cases {
		var er ErrorResponse
		status, _ := postJSON(t, ts.URL+"/v1/count", req, &er)
		if status != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400 (err=%q)", i, status, er.Error)
		}
	}
}

// TestCountBatchRootWindowsSumExactly: batch counts over adjacent root
// windows sum to the unwindowed batch, entry by entry — the property
// the coordinator's scatter-gather merge rests on.
func TestCountBatchRootWindowsSumExactly(t *testing.T) {
	_, ts, graphs := newTestServer(t, nil)
	g := graphs["g2"]
	minTS := int64(g.Edges[0].Time)
	maxTS := int64(g.Edges[g.NumEdges()-1].Time) + 1
	mid := (minTS + maxTS) / 2

	post := func(tw *TimeWindow) CountResponse {
		var resp CountResponse
		status, _ := postJSON(t, ts.URL+"/v1/count", CountRequest{
			Dataset: "g2", DeltaSeconds: testDelta,
			Motifs:     []string{"M1", "M2", "M3", "M4"},
			RootWindow: tw,
		}, &resp)
		if status != http.StatusOK {
			t.Fatalf("status %d, want 200", status)
		}
		return resp
	}
	full := post(nil)
	left := post(&TimeWindow{StartTS: minTS, EndTS: mid})
	right := post(&TimeWindow{StartTS: mid, EndTS: maxTS})
	for i := range full.PerMotif {
		sum := left.PerMotif[i].Count + right.PerMotif[i].Count
		if sum != full.PerMotif[i].Count {
			t.Errorf("entry %d (%s): windowed sum %d != full %d",
				i, full.PerMotif[i].Motif, sum, full.PerMotif[i].Count)
		}
	}
}

// TestChaosCountBatchLoudTruncation pins fault injection to the
// executor's chunk site, which co-mined groups run on: every chunk claim errors, so a batch request
// must come back 200 with EVERY entry loudly truncated as fault
// injected (there is no estimator to silently substitute), and after
// Threshold failures the workload breaker must open and shed the batch
// with a 503 instead of lying.
func TestChaosCountBatchLoudTruncation(t *testing.T) {
	plan, err := mint.ParseChaosPlan("seed=1,error=1.0,sites=mackey.chunk")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, graphs := newTestServer(t, func(cfg *Config) {
		cfg.Chaos = plan
		cfg.Breaker = BreakerConfig{Threshold: 2, Cooldown: time.Minute}
	})
	oracles := []int64{
		mint.Count(graphs["g1"], mint.M1(testDelta)),
		mint.Count(graphs["g1"], mint.M2(testDelta)),
	}
	req := CountRequest{Dataset: "g1", Motifs: []string{"M1", "M2"}, DeltaSeconds: testDelta}
	for i := 0; i < 2; i++ {
		var resp CountResponse
		status, _ := postJSON(t, ts.URL+"/v1/count", req, &resp)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (exact-or-loud, not an error)", i, status)
		}
		if resp.Exact || !resp.Truncated {
			t.Fatalf("request %d: faulted batch not marked truncated: %+v", i, resp)
		}
		if resp.StopReason == "" {
			t.Errorf("request %d: truncated batch with no stop reason", i)
		}
		if resp.TraceID == "" {
			t.Errorf("request %d: chaos-truncated batch missing trace id", i)
		}
		if len(resp.PerMotif) != 2 {
			t.Fatalf("request %d: %d entries, want 2", i, len(resp.PerMotif))
		}
		for j, e := range resp.PerMotif {
			if !e.Truncated || e.StopReason == "" {
				t.Errorf("request %d entry %s: fault-injected entry not loudly truncated: %+v", i, e.Motif, e)
			}
			if e.Count > oracles[j] {
				t.Errorf("request %d entry %s: truncated count %d exceeds oracle %d", i, e.Motif, e.Count, oracles[j])
			}
		}
	}
	if !s.brk.Open("g1/batch:2") {
		t.Error("batch breaker never opened despite every run faulting")
	}
	var resp CountResponse
	status, _ := postJSON(t, ts.URL+"/v1/count", req, &resp)
	if status != http.StatusServiceUnavailable {
		t.Errorf("breaker-open batch = %d, want 503 (no degraded mode for a set)", status)
	}
}
