package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mint"
	"mint/internal/obs"
)

// TestSupervisedAsksTheBreaker: a supervised request goes through the
// same mine step as every other request. With its workload's breaker
// open it sheds with 503 + Retry-After instead of running, and it
// leaves the breaker open (no Record without an Acquire).
func TestSupervisedAsksTheBreaker(t *testing.T) {
	s, ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.CheckpointDir = t.TempDir()
		cfg.Breaker = BreakerConfig{Threshold: 2, Cooldown: time.Minute}
	})
	s.brk.Record("g1/M1", false)
	s.brk.Record("g1/M1", false)
	if !s.brk.Open("g1/M1") {
		t.Fatal("breaker did not open after Threshold failures")
	}
	var e ErrorResponse
	status, hdr := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Supervised: true}, &e)
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("supervised request on an open breaker: status %d, Retry-After %q (%s); want 503 with Retry-After",
			status, hdr.Get("Retry-After"), e.Error)
	}
	if !s.brk.Open("g1/M1") {
		t.Fatal("a shed supervised request closed the breaker")
	}
}

// TestSupervisedCheckpointLifetime: an exact supervised run removes its
// checkpoint and names none; a truncated run keeps it and names it.
func TestSupervisedCheckpointLifetime(t *testing.T) {
	dir := t.TempDir()
	_, ts, graphs := newTestServer(t, func(cfg *Config) { cfg.CheckpointDir = dir })
	files := func() []os.DirEntry {
		es, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return es
	}

	var exact CountResponse
	if status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Supervised: true}, &exact); status != http.StatusOK {
		t.Fatalf("exact supervised status %d", status)
	}
	if want := mint.Count(graphs["g1"], mint.M1(testDelta)); !exact.Exact || int64(exact.Count) != want {
		t.Fatalf("supervised reply %+v, want exact %d", exact, want)
	}
	if exact.Checkpoint != "" || len(files()) != 0 {
		t.Fatalf("exact run left checkpoint %q and %d files", exact.Checkpoint, len(files()))
	}

	var cut CountResponse
	if status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Supervised: true, MaxMatches: 1}, &cut); status != http.StatusOK {
		t.Fatalf("truncated supervised status %d", status)
	}
	if !cut.Truncated || cut.Checkpoint == "" {
		t.Fatalf("truncated supervised reply %+v, want truncated with a checkpoint", cut)
	}
	if _, err := os.Stat(cut.Checkpoint); err != nil {
		t.Fatalf("named checkpoint missing: %v", err)
	}
}

// TestSupervisedBatchCountsExactly: a supervised batch is one
// supervised co-mined run — M4 on its kernel — whose entries equal the
// unsupervised counts; exact, it leaves no checkpoint behind.
func TestSupervisedBatchCountsExactly(t *testing.T) {
	dir := t.TempDir()
	_, ts, graphs := newTestServer(t, func(cfg *Config) { cfg.CheckpointDir = dir })
	var resp CountResponse
	if status, _ := postJSON(t, ts.URL+"/v1/count", CountRequest{Dataset: "g1", DeltaSeconds: testDelta,
		Motifs: []string{"M1", "M2", "M3", "M4"}, Supervised: true}, &resp); status != http.StatusOK {
		t.Fatalf("supervised batch status %d", status)
	}
	if !resp.Exact || len(resp.PerMotif) != 4 || resp.Checkpoint != "" {
		t.Fatalf("supervised batch reply %+v, want 4 exact entries and no checkpoint", resp)
	}
	for i, m := range mint.EvaluationMotifs(testDelta) {
		if want := mint.Count(graphs["g1"], m); resp.PerMotif[i].Count != want {
			t.Errorf("%s: supervised batch counted %d, want %d", m.Name, resp.PerMotif[i].Count, want)
		}
	}
	if es, err := os.ReadDir(dir); err != nil || len(es) != 0 {
		t.Fatalf("exact supervised batch left %d files (%v)", len(es), err)
	}
}

// TestSupervisedNamesOnlyWrittenCheckpoints: a truncated supervised run
// whose checkpoint could not be written (the checkpoint dir is a file)
// still answers with its partial count, but names no checkpoint.
func TestSupervisedNamesOnlyWrittenCheckpoints(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, func(cfg *Config) { cfg.CheckpointDir = notDir })
	var cut CountResponse
	if status, _ := postJSON(t, ts.URL+"/v1/count",
		CountRequest{Dataset: "g1", Motif: "M1", DeltaSeconds: testDelta, Supervised: true, MaxMatches: 1}, &cut); status != http.StatusOK {
		t.Fatalf("truncated supervised status %d", status)
	}
	if !cut.Truncated || cut.Checkpoint != "" {
		t.Fatalf("reply %+v: want truncated and no checkpoint named", cut)
	}
}

// TestProfileRunsTheBatchQuery: the worker profile is the batch query
// over M1–M4, so the server's chaos plan, metrics and breaker reach it
// exactly as they reach a batch /v1/count.
func TestProfileRunsTheBatchQuery(t *testing.T) {
	plan, err := mint.ParseChaosPlan("seed=1,error=1.0,sites=mackey")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.Chaos = plan
		cfg.Obs = obs.New("mintd")
	})
	var resp ProfileResponse
	if status, _ := postJSON(t, ts.URL+"/v1/profile",
		ProfileRequest{Dataset: "g1", DeltaSeconds: testDelta}, &resp); status != http.StatusOK {
		t.Fatalf("profile status %d", status)
	}
	if len(resp.Profile) != 4 {
		t.Fatalf("profile has %d rows, want 4", len(resp.Profile))
	}
	for _, e := range resp.Profile {
		if !e.Truncated || e.StopReason == "" {
			t.Errorf("%s: %+v, want loudly truncated under error=1.0", e.Motif, e)
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mintd_comine_groups", `mintd_server_workload_requests{dataset="g1",motif="M4"}`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q after a profile", want)
		}
	}
}
