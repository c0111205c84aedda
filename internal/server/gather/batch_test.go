package gather

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mint"
	"mint/internal/obs"
	"mint/internal/server"
	"mint/internal/shard"
)

// Batch /v1/count and the co-mined /v1/profile in coordinator mode.
// The merge property under test is root-window additivity: each shard
// co-mines the whole motif set over its owned window, and the
// entrywise sums must be bit-identical to the single-process oracle.

// TestBatchCountMergeBitIdentical fans a batch of named motifs plus a
// custom spec across a healthy 3-shard cluster and diffs every merged
// entry against the per-motif oracle.
func TestBatchCountMergeBitIdentical(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
	}
	_, cts := newCoordinator(t, urls, nil)

	names := []string{"M1", "M2", "M3", "M4"}
	motifs := mint.EvaluationMotifs(testDelta)
	pingpong, err := mint.ParseMotif("custom0", testDelta, "0->1,1->0")
	if err != nil {
		t.Fatal(err)
	}
	oracles := make([]int64, 0, len(motifs)+1)
	for _, m := range motifs {
		oracles = append(oracles, mint.Count(g, m))
	}
	oracles = append(oracles, mint.Count(g, pingpong))

	var resp server.CountResponse
	status, _ := postJSON(t, cts.URL+"/v1/count", server.CountRequest{
		Dataset: "g", Motifs: names, MotifSpecs: []string{"0->1,1->0"},
		DeltaSeconds: testDelta,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch status %d, want 200", status)
	}
	if !resp.Exact || resp.Truncated || resp.Degraded || resp.Partial != nil {
		t.Fatalf("healthy batch merge not pure exact: %+v", resp)
	}
	if len(resp.PerMotif) != len(oracles) {
		t.Fatalf("merged %d entries, want %d", len(resp.PerMotif), len(oracles))
	}
	var sum int64
	for i, e := range resp.PerMotif {
		if e.Truncated || e.StopReason != "" {
			t.Errorf("entry %d (%s): truncation markers on a healthy merge: %+v", i, e.Motif, e)
		}
		if e.Count != oracles[i] {
			t.Errorf("entry %d (%s): merged %d, oracle %d", i, e.Motif, e.Count, oracles[i])
		}
		sum += e.Count
	}
	if int64(resp.Count) != sum || resp.ExactPartial != sum {
		t.Errorf("top-level count %v (partial %d) != entry sum %d", resp.Count, resp.ExactPartial, sum)
	}
}

// TestChaosBatchShardLossLoudPartial kills one of three shards before a
// batch request: its root window is unrecoverable, so the merge must
// answer 200 with Partial naming the shard and EVERY entry marked
// truncated shard_unavailable — per-motif lower bounds, never a
// silently short fingerprint.
func TestChaosBatchShardLossLoudPartial(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	var tss []interface{ Close() }
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
		tss = append(tss, ts)
	}
	_, cts := newCoordinator(t, urls, nil)
	tss[1].Close() // the victim: its owned window is now missing

	motifs := mint.EvaluationMotifs(testDelta)
	var resp server.CountResponse
	status, _ := postJSON(t, cts.URL+"/v1/count", server.CountRequest{
		Dataset: "g", Motifs: []string{"M1", "M2", "M3", "M4"}, DeltaSeconds: testDelta,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch over lost shard: status %d, want 200 lower bound", status)
	}
	if resp.Exact || !resp.Truncated || resp.StopReason != StopShardUnavailable {
		t.Fatalf("lost-shard batch not loudly truncated: %+v", resp)
	}
	if resp.Partial == nil || resp.Partial.Bound != "lower" || len(resp.Partial.MissingShards) == 0 {
		t.Fatalf("lost-shard batch missing Partial info: %+v", resp.Partial)
	}
	if len(resp.PerMotif) != 4 {
		t.Fatalf("merged %d entries, want 4", len(resp.PerMotif))
	}
	for i, e := range resp.PerMotif {
		if !e.Truncated || e.StopReason == "" {
			t.Errorf("entry %s: lost shard but entry not loudly truncated: %+v", e.Motif, e)
		}
		if oracle := mint.Count(g, motifs[i]); e.Count > oracle {
			t.Errorf("entry %s: lower bound %d exceeds oracle %d", e.Motif, e.Count, oracle)
		}
	}
}

// TestProfileMergeMatchesOracle: the coordinator profile is one batch
// fan-out of M1–M4; on a healthy cluster each row must match the
// single-process fingerprint, densities normalized by the dataset's
// edge count.
func TestProfileMergeMatchesOracle(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
	}
	_, cts := newCoordinator(t, urls, nil)

	// The worker default δ is one hour when the request leaves it unset;
	// pass testDelta explicitly so the oracle matches.
	oracle := mint.Profile(g, mint.EvaluationMotifs(testDelta), 0)

	var resp server.ProfileResponse
	status, _ := postJSON(t, cts.URL+"/v1/profile", server.ProfileRequest{
		Dataset: "g", DeltaSeconds: testDelta,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("profile status %d, want 200", status)
	}
	if resp.Partial != nil {
		t.Fatalf("healthy profile carries Partial: %+v", resp.Partial)
	}
	if resp.TraceID == "" {
		t.Error("profile response missing trace id")
	}
	if len(resp.Profile) != len(oracle) {
		t.Fatalf("profile has %d rows, want %d", len(resp.Profile), len(oracle))
	}
	for i, e := range resp.Profile {
		want := oracle[i]
		if e.Motif != want.Motif.Name {
			t.Errorf("row %d: motif %q, want %q", i, e.Motif, want.Motif.Name)
		}
		if e.Truncated || e.StopReason != "" {
			t.Errorf("row %s: truncation markers on a healthy profile: %+v", e.Motif, e)
		}
		if e.Count != want.Count {
			t.Errorf("row %s: merged count %d, oracle %d", e.Motif, e.Count, want.Count)
		}
		if diff := e.Density - want.Density; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("row %s: density %v, oracle %v", e.Motif, e.Density, want.Density)
		}
	}
}

// TestChaosProfileShardLossPartial: a profile assembled without every
// shard must say so — Partial set, every row truncated
// shard_unavailable, counts staying lower bounds.
func TestChaosProfileShardLossPartial(t *testing.T) {
	g := testGraph()
	graphs := map[string]*mint.Graph{"g": g}
	var urls []string
	var tss []interface{ Close() }
	for i := 0; i < 3; i++ {
		_, ts := newWorker(t, graphs, nil)
		urls = append(urls, ts.URL)
		tss = append(tss, ts)
	}
	_, cts := newCoordinator(t, urls, nil)
	tss[2].Close()

	oracle := mint.Profile(g, mint.EvaluationMotifs(testDelta), 0)
	var resp server.ProfileResponse
	status, _ := postJSON(t, cts.URL+"/v1/profile", server.ProfileRequest{
		Dataset: "g", DeltaSeconds: testDelta,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("profile status %d, want 200 lower bound", status)
	}
	if resp.Partial == nil || resp.Partial.Bound != "lower" {
		t.Fatalf("lost-shard profile missing Partial: %+v", resp.Partial)
	}
	if len(resp.Profile) != len(oracle) {
		t.Fatalf("profile has %d rows, want %d", len(resp.Profile), len(oracle))
	}
	for i, e := range resp.Profile {
		if !e.Truncated || e.StopReason == "" {
			t.Errorf("row %s: lost shard but row not loudly truncated: %+v", e.Motif, e)
		}
		if e.Count > oracle[i].Count {
			t.Errorf("row %s: lower bound %d exceeds oracle %d", e.Motif, e.Count, oracle[i].Count)
		}
	}
}

// TestMisalignedBatchShardIsMissing: a shard that answers a 2-motif
// batch with one per-motif entry cannot be merged entrywise. Its window
// goes missing — a loud partial naming it — and it counts as a failed
// shard, labeled counter included.
func TestMisalignedBatchShardIsMissing(t *testing.T) {
	g := testGraph()
	_, healthy := newWorker(t, map[string]*mint.Graph{"g": g}, nil)
	info := server.DatasetInfoResponse{
		Dataset: "g", Nodes: g.NumNodes(), Edges: g.NumEdges(),
		MinTS: int64(g.Edges[0].Time), MaxTS: int64(g.Edges[g.NumEdges()-1].Time),
		Fingerprint: shard.Fingerprint(g),
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/datasetinfo":
			json.NewEncoder(w).Encode(info) //nolint:errcheck
		case "/v1/count":
			json.NewEncoder(w).Encode(server.CountResponse{ //nolint:errcheck
				Count: 1, Exact: true, Engine: mint.EngineExact, ExactPartial: 1,
				PerMotif: []server.MotifCountEntry{{Motif: "M1", Count: 1}},
			})
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(stub.Close)
	reg := obs.New("coordinator")
	_, cts := newCoordinator(t, []string{healthy.URL, stub.URL}, func(cfg *Config) { cfg.Obs = reg })

	var resp server.CountResponse
	status, _ := postJSON(t, cts.URL+"/v1/count", server.CountRequest{
		Dataset: "g", Motifs: []string{"M1", "M2"}, DeltaSeconds: testDelta,
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 lower bound", status)
	}
	if resp.Exact || !resp.Truncated || resp.StopReason != StopShardUnavailable {
		t.Fatalf("misaligned shard not loudly truncated: %+v", resp)
	}
	if resp.Partial == nil || len(resp.Partial.MissingShards) != 1 || resp.Partial.MissingShards[0] != stub.URL {
		t.Fatalf("partial %+v, want the stub %s missing", resp.Partial, stub.URL)
	}
	if n := reg.Counter(obs.Labeled("gather.shard_failed_by", "shard", stub.URL)).Value(); n != 1 {
		t.Fatalf("gather.shard_failed_by{shard=stub} = %d, want 1", n)
	}
}
