package server

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"mint"
	"mint/internal/checkpoint"
	"mint/internal/runctl"
	"mint/internal/testutil"
)

// TestDrainCheckpointsInFlightSupervisedRequest is the in-process half
// of the drain contract: a slow supervised request caught by a drain
// whose grace expires must come back 200 with an explicit truncation
// and a checkpoint that resumes to the oracle count — drain may cost
// the client completeness, never correctness.
//
// The request is paced with a deterministic per-chunk delay plan (the
// same trick as cmd/mine's kill-and-resume test), so "mid-flight" is
// reachable on any host without wall-clock guessing.
func TestDrainCheckpointsInFlightSupervisedRequest(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(5)), 48, 20_000, 4000)
	m := mint.M1(800)
	want := mint.Count(g, m)
	if want == 0 {
		t.Fatal("workload has no matches; the comparison would be vacuous")
	}

	plan, err := mint.ParseChaosPlan("seed=1,delay=1.0,delaydur=20ms,sites=mackey.chunk")
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	graphs := map[string]*mint.Graph{"big": g}
	s := New(Config{
		Loader:        graphLoader(graphs),
		Workers:       1,
		CheckpointDir: ckptDir,
		Chaos:         plan,
		Caps:          runctl.Caps{DefaultTimeout: time.Minute, MaxTimeout: time.Minute},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		resp   CountResponse
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.status, _ = postJSON(t, ts.URL+"/v1/count", CountRequest{
			Dataset: "big", Motif: "M1", DeltaSeconds: 800, Supervised: true,
		}, &r.resp)
		done <- r
	}()

	// Wait for the request to make real progress: its checkpoint must
	// hold some completed chunks before we pull the plug.
	var ckptPath string
	deadline := time.Now().Add(30 * time.Second)
	for ckptPath == "" {
		if time.Now().After(deadline) {
			t.Fatal("supervised request never produced a checkpoint with completed chunks")
		}
		time.Sleep(10 * time.Millisecond)
		paths, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
		for _, p := range paths {
			if f, err := checkpoint.Load(p); err == nil && f != nil && len(f.Runs) > 0 && len(f.Runs[0].Chunks) >= 4 {
				ckptPath = p
			}
		}
	}

	// Drain with a grace far shorter than the remaining work: the forced
	// path must cancel the run and still return promptly.
	drainCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	drainStart := time.Now()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if took := time.Since(drainStart); took > 10*time.Second {
		t.Fatalf("Drain took %v; forced cancellation should unwind within one check interval", took)
	}

	r := <-done
	if r.status != 200 {
		t.Fatalf("in-flight request finished with status %d, want 200", r.status)
	}
	if r.resp.Exact {
		// Finished before the grace expired (very fast host): the count
		// must then simply be right.
		if int64(r.resp.Count) != want {
			t.Fatalf("exact count %v, oracle %d", r.resp.Count, want)
		}
		return
	}
	if !r.resp.Truncated || r.resp.StopReason == "" {
		t.Fatalf("interrupted request not loudly truncated: %+v", r.resp)
	}
	if r.resp.Checkpoint == "" {
		t.Fatal("interrupted supervised request carries no checkpoint path")
	}
	if int64(r.resp.Count) > want {
		t.Fatalf("partial count %v exceeds oracle %d; lower-bound contract broken", r.resp.Count, want)
	}

	// The checkpoint must be valid resume evidence: replaying it (no
	// chaos, more workers) lands exactly on the oracle count.
	res, err := mint.Run(context.Background(), g, mint.Query{Motif: m, Workers: 4,
		Supervisor: &mint.SupervisorConfig{CheckpointPath: r.resp.Checkpoint, Resume: true}})
	if err != nil {
		t.Fatalf("resume from %s: %v", r.resp.Checkpoint, err)
	}
	if res.Truncated {
		t.Fatalf("resumed run truncated: %s", res.StopReason)
	}
	if res.Matches != want {
		t.Fatalf("resumed count %d, oracle %d", res.Matches, want)
	}
}
