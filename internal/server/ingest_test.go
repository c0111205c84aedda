package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mint"
	"mint/internal/runctl"
	"mint/internal/testutil"
)

// newIngestServer builds a server with ingestion enabled on dir and
// waits for startup replay to land.
func newIngestServer(t *testing.T, dir string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Loader: graphLoader(testGraphs()),
		Caps:   runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second},
		Ingest: IngestConfig{Dir: dir, Dataset: "live", SnapshotEvery: -1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	<-s.LiveReady()
	if _, err := s.IngestRecovery(); err != nil {
		t.Fatalf("ingest open: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func mustGraph(t *testing.T, edges []mint.Edge) *mint.Graph {
	t.Helper()
	g, err := mint.NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func ingestBatch(t *testing.T, url string, clientSeq uint64, edges []mint.Edge) IngestResponse {
	t.Helper()
	req := IngestRequest{ClientID: "test", ClientSeq: clientSeq}
	for _, e := range edges {
		req.Edges = append(req.Edges, IngestEdge{Src: int64(e.Src), Dst: int64(e.Dst), Time: int64(e.Time)})
	}
	var out IngestResponse
	code, _ := postJSON(t, url+"/v1/edges", req, &out)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/edges seq %d: status %d", clientSeq, code)
	}
	return out
}

// TestIngestEndToEnd is the live-dataset differential: append batches
// over HTTP, and after every batch /v1/count on the live dataset must
// equal an in-process cold mine of exactly the edges appended so far —
// the live name resolves to the stream's current graph on every
// checkout, so no count is ever served off a pre-append graph.
func TestIngestEndToEnd(t *testing.T) {
	_, ts := newIngestServer(t, t.TempDir(), nil)
	all := testutil.RandomGraph(rand.New(rand.NewSource(11)), 16, 300, 2000).Edges
	m, err := mint.MotifByName("M1", testDelta)
	if err != nil {
		t.Fatal(err)
	}

	var appended []mint.Edge
	const batch = 60
	for i := 0; i < len(all); i += batch {
		end := i + batch
		if end > len(all) {
			end = len(all)
		}
		res := ingestBatch(t, ts.URL, uint64(i/batch+1), all[i:end])
		if res.Dup || res.Accepted != end-i {
			t.Fatalf("batch %d: %+v", i/batch, res)
		}
		appended = append(appended, all[i:end]...)
		if res.Edges != len(appended) {
			t.Fatalf("live edges = %d, appended %d", res.Edges, len(appended))
		}

		var cr CountResponse
		code, _ := postJSON(t, ts.URL+"/v1/count", CountRequest{
			Dataset: "live", Motif: "M1", DeltaSeconds: testDelta,
		}, &cr)
		if code != http.StatusOK {
			t.Fatalf("count after batch %d: status %d", i/batch, code)
		}
		want := mint.Count(mustGraph(t, appended), m)
		if !cr.Exact || int64(cr.Count) != want {
			t.Fatalf("batch %d: served count %v (exact=%v), cold mine %d",
				i/batch, cr.Count, cr.Exact, want)
		}
	}

	// Idempotent retry: re-sending the last batch under its client_seq
	// must append nothing.
	before := len(appended)
	res := ingestBatch(t, ts.URL, uint64((len(all)+batch-1)/batch), all[len(all)-1:])
	if !res.Dup {
		t.Fatalf("replayed client_seq was not deduped: %+v", res)
	}
	var cr CountResponse
	postJSON(t, ts.URL+"/v1/count", CountRequest{Dataset: "live", Motif: "M1", DeltaSeconds: testDelta}, &cr)
	if want := mint.Count(mustGraph(t, appended[:before]), m); int64(cr.Count) != want {
		t.Fatalf("count after dup = %v, want %d", cr.Count, want)
	}
}

// TestIngestStandingQueries registers standing queries over HTTP and
// checks the incrementally maintained counts against cold mines after
// every batch, plus the list/unregister surface.
func TestIngestStandingQueries(t *testing.T) {
	_, ts := newIngestServer(t, t.TempDir(), nil)
	all := testutil.RandomGraph(rand.New(rand.NewSource(23)), 12, 200, 1500).Edges

	var sr StandingResponse
	code, _ := postJSON(t, ts.URL+"/v1/standing", StandingRegisterRequest{
		Name: "m1", Motif: "M1", DeltaSeconds: testDelta,
	}, &sr)
	if code != http.StatusOK || sr.Standing.Count != 0 {
		t.Fatalf("register on empty stream: code %d, %+v", code, sr)
	}
	code, _ = postJSON(t, ts.URL+"/v1/standing", StandingRegisterRequest{
		Name: "tri", MotifSpec: "A->B;B->C;C->A", DeltaSeconds: testDelta,
	}, &sr)
	if code != http.StatusOK {
		t.Fatalf("register spec: code %d", code)
	}
	m1, _ := mint.MotifByName("M1", testDelta)
	tri, err := mint.ParseMotif("tri", testDelta, "A->B;B->C;C->A")
	if err != nil {
		t.Fatal(err)
	}

	var appended []mint.Edge
	for i := 0; i < len(all); i += 40 {
		end := i + 40
		if end > len(all) {
			end = len(all)
		}
		ingestBatch(t, ts.URL, uint64(i/40+1), all[i:end])
		appended = append(appended, all[i:end]...)

		resp, err := http.Get(ts.URL + "/v1/standing")
		if err != nil {
			t.Fatal(err)
		}
		var list StandingListResponse
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list.Standing) != 2 {
			t.Fatalf("standing board has %d entries, want 2", len(list.Standing))
		}
		cold := mustGraph(t, appended)
		want := map[string]int64{"m1": mint.Count(cold, m1), "tri": mint.Count(cold, tri)}
		for _, sc := range list.Standing {
			if sc.Stale {
				t.Fatalf("standing %s stale without faults: %s", sc.Name, sc.Reason)
			}
			if sc.Count != want[sc.Name] {
				t.Fatalf("batch %d: standing %s = %d, cold mine %d", i/40, sc.Name, sc.Count, want[sc.Name])
			}
		}
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/standing/tri", nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unregister: status %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unregister: status %d, want 404", resp.StatusCode)
	}
}

// TestIngestReplayGating: while the live graph is replaying, /readyz
// reports 503 "replaying" and both the ingest and mining paths on the
// live dataset answer 503 — never a partial graph.
func TestIngestReplayGating(t *testing.T) {
	s, ts := newIngestServer(t, t.TempDir(), nil)
	ingestBatch(t, ts.URL, 1, []mint.Edge{{Src: 1, Dst: 2, Time: 10}})

	// Flip the replay gate back on (the deterministic stand-in for a
	// long startup replay).
	s.liveReplaying.Store(true)
	defer s.liveReplaying.Store(false)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz map[string]any
	json.NewDecoder(resp.Body).Decode(&rz) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || rz["status"] != "replaying" {
		t.Fatalf("readyz during replay: %d %v", resp.StatusCode, rz)
	}

	code, _ := postJSON(t, ts.URL+"/v1/edges", IngestRequest{
		Edges: []IngestEdge{{Src: 3, Dst: 4, Time: 20}},
	}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("append during replay: status %d, want 503", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/count", CountRequest{Dataset: "live", Motif: "M1"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("count during replay: status %d, want 503", code)
	}
	// Static datasets keep serving through the replay.
	code, _ = postJSON(t, ts.URL+"/v1/count", CountRequest{Dataset: "g2", Motif: "M1"}, nil)
	if code != http.StatusOK {
		t.Fatalf("static count during replay: status %d, want 200", code)
	}

	s.liveReplaying.Store(false)
	code, _ = postJSON(t, ts.URL+"/v1/edges", IngestRequest{
		ClientID: "test", ClientSeq: 2,
		Edges: []IngestEdge{{Src: 3, Dst: 4, Time: 20}},
	}, nil)
	if code != http.StatusOK {
		t.Fatalf("append after replay: status %d", code)
	}
}

// TestIngestRestartRecovers: drain one server, boot a second on the
// same WAL directory, and require the replayed live dataset to serve
// identical counts and fingerprint — the HTTP-level restatement of the
// WAL replay contract.
func TestIngestRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newIngestServer(t, dir, nil)
	edges := testutil.RandomGraph(rand.New(rand.NewSource(31)), 10, 120, 1000).Edges
	var last IngestResponse
	for i := 0; i < len(edges); i += 30 {
		end := i + 30
		if end > len(edges) {
			end = len(edges)
		}
		last = ingestBatch(t, ts1.URL, uint64(i/30+1), edges[i:end])
	}
	var before CountResponse
	postJSON(t, ts1.URL+"/v1/count", CountRequest{Dataset: "live", Motif: "M2", DeltaSeconds: testDelta}, &before)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	ts1.Close()

	s2, ts2 := newIngestServer(t, dir, nil)
	rec, err := s2.IngestRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Fatalf("clean drain replayed as truncated: %s", rec.Detail)
	}
	var info DatasetInfoResponse
	code, _ := postJSON(t, ts2.URL+"/v1/datasetinfo", DatasetInfoRequest{Dataset: "live"}, &info)
	if code != http.StatusOK {
		t.Fatalf("datasetinfo: status %d", code)
	}
	if info.Edges != last.Edges {
		t.Fatalf("replayed %d edges, appended %d", info.Edges, last.Edges)
	}
	var after CountResponse
	postJSON(t, ts2.URL+"/v1/count", CountRequest{Dataset: "live", Motif: "M2", DeltaSeconds: testDelta}, &after)
	if after.Count != before.Count || !after.Exact {
		t.Fatalf("count after restart = %v (exact=%v), before %v", after.Count, after.Exact, before.Count)
	}
	// Dedup ledger survives the restart too.
	res := ingestBatch(t, ts2.URL, uint64((len(edges)+29)/30), edges[:1])
	if !res.Dup {
		t.Fatalf("client ledger lost across restart: %+v", res)
	}
}

// TestIngestValidation: caller mistakes are 400s, and a server without
// ingestion enabled refuses the surface loudly.
func TestIngestValidation(t *testing.T) {
	_, ts := newIngestServer(t, t.TempDir(), nil)
	code, _ := postJSON(t, ts.URL+"/v1/edges", IngestRequest{}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/edges", IngestRequest{
		Edges: []IngestEdge{{Src: -1, Dst: 2, Time: 5}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("negative endpoint: status %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/edges", IngestRequest{
		Edges: []IngestEdge{{Src: 1 << 40, Dst: 2, Time: 5}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized endpoint: status %d, want 400", code)
	}
	code, _ = postJSON(t, ts.URL+"/v1/standing", StandingRegisterRequest{Motif: "M1"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("nameless standing register: status %d, want 400", code)
	}

	// No ingest configured: the whole surface is a loud 400.
	_, plain, _ := newTestServer(t, nil)
	code, _ = postJSON(t, plain.URL+"/v1/edges", IngestRequest{
		Edges: []IngestEdge{{Src: 1, Dst: 2, Time: 3}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("append without ingest: status %d, want 400", code)
	}
}

// TestIngestRequestLimits pins the server's request-size bounds: a batch
// over the edge cap is a 400, a body over MaxBodyBytes is a 413, and a
// request inside both limits still lands. Without these, one client
// could drive unbounded allocation — or ack a batch too large for the
// WAL's record cap to ever replay.
func TestIngestRequestLimits(t *testing.T) {
	_, ts := newIngestServer(t, t.TempDir(), func(cfg *Config) {
		cfg.MaxBodyBytes = 4096
		cfg.Ingest.MaxBatchEdges = 2
	})

	code, _ := postJSON(t, ts.URL+"/v1/edges", IngestRequest{
		Edges: []IngestEdge{{Src: 1, Dst: 2, Time: 1}, {Src: 2, Dst: 3, Time: 2}, {Src: 3, Dst: 4, Time: 3}},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("over-cap batch: status %d, want 400", code)
	}

	big := IngestRequest{}
	for i := 0; i < 500; i++ {
		big.Edges = append(big.Edges, IngestEdge{Src: int64(i), Dst: int64(i + 1), Time: int64(i)})
	}
	code, _ = postJSON(t, ts.URL+"/v1/edges", big, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", code)
	}

	// The mining endpoints share the body bound.
	code, _ = postJSON(t, ts.URL+"/v1/count", CountRequest{
		Dataset: "live", Motif: "M1", MotifSpec: string(make([]byte, 8192)),
	}, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized count body: status %d, want 413", code)
	}

	var out IngestResponse
	code, _ = postJSON(t, ts.URL+"/v1/edges", IngestRequest{
		Edges: []IngestEdge{{Src: 1, Dst: 2, Time: 1}, {Src: 2, Dst: 3, Time: 2}},
	}, &out)
	if code != http.StatusOK || out.Accepted != 2 {
		t.Fatalf("in-limit batch: status %d resp %+v", code, out)
	}
}
