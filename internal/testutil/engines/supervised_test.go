package engines

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"mint"
	"mint/internal/faultinject"
	"mint/internal/obs"
	"mint/internal/oracle"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// The supervised rows: supervision is a policy of the one chunk
// scheduler, so co-mined sets, root windows and star kernels run under
// it exactly as a single motif does, and must count what the oracle
// counts. CI runs them under -race with the rest of TestSupervised*.

// TestSupervisedSetsMatchOracle: the M1–M4 set, supervised, at 1 and 4
// workers — M4 on its star kernel, M1–M3 on the group's trie — must
// equal the oracle motif by motif.
func TestSupervisedSetsMatchOracle(t *testing.T) {
	for _, dg := range diffGraphs(t, testing.Short()) {
		for _, delta := range dg.deltas[:2] {
			set := temporal.EvaluationMotifs(delta)
			for _, workers := range []int{1, 4} {
				res, err := mint.Run(context.Background(), dg.g, mint.Query{Motifs: set, Workers: workers, Supervisor: &mint.SupervisorConfig{}})
				if err != nil || res.Truncated || res.Supervised.ChunksDone != res.Supervised.ChunksTotal {
					t.Fatalf("%s δ=%d workers %d: %v (truncated %v, ledger %+v)", dg.name, delta, workers, err, res.Truncated, res.Supervised)
				}
				for i, pm := range res.Batch.PerMotif {
					if want := oracle.Count(dg.g, set[i]); pm.Matches != want || pm.Kernel != (i == 3) {
						t.Errorf("%s δ=%d workers %d: %s counted %d (kernel %v), oracle %d",
							dg.name, delta, workers, set[i].Name, pm.Matches, pm.Kernel, want)
					}
				}
			}
		}
	}
}

// TestSupervisedRootWindowsSum: supervised runs over three root windows
// at the edge-list terciles, on 4 workers, must sum to the oracle for
// each of M1–M4, the star on its kernel.
func TestSupervisedRootWindowsSum(t *testing.T) {
	for _, dg := range diffGraphs(t, testing.Short()) {
		n := dg.g.NumEdges()
		cuts := []temporal.Timestamp{math.MinInt64, dg.g.Edges[n/3].Time, dg.g.Edges[2*n/3].Time, math.MaxInt64}
		for _, m := range temporal.EvaluationMotifs(dg.deltas[1]) {
			var sum int64
			for i := 0; i+1 < len(cuts); i++ {
				w := mint.RootWindow{Start: cuts[i], End: cuts[i+1]}
				res, err := mint.Run(context.Background(), dg.g, mint.Query{Motif: m, Workers: 4, Roots: &w, Supervisor: &mint.SupervisorConfig{}})
				if err != nil || res.Truncated {
					t.Fatalf("%s %s window %d: %v (truncated %v)", dg.name, m.Name, i, err, res.Truncated)
				}
				sum += res.Matches
			}
			if want := oracle.Count(dg.g, m); sum != want {
				t.Errorf("%s %s: supervised windows sum to %d, oracle %d", dg.name, m.Name, sum, want)
			}
		}
	}
}

// TestSupervisedKernelRetriesChaos: a supervised star kernel under
// error= and panic= chaos plans on its chunks retries every failed
// chunk back to the exact count.
func TestSupervisedKernelRetriesChaos(t *testing.T) {
	dg := diffGraphs(t, true)[0]
	m := temporal.EvaluationMotifs(dg.deltas[2])[3]
	want := oracle.Count(dg.g, m)
	retries := 0
	for _, kind := range []string{"error", "panic"} {
		for seed := 1; seed <= 3; seed++ {
			plan, err := mint.ParseChaosPlan(fmt.Sprintf("seed=%d,%s=0.2,sites=mackey.chunk", seed, kind))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New("chaos")
			res, err := mint.Run(context.Background(), dg.g, mint.Query{Motif: m, Workers: 4, Chaos: plan, Obs: reg,
				Supervisor: &mint.SupervisorConfig{MaxAttempts: 8, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond}})
			if err != nil || res.Truncated || res.Matches != want || len(res.Kernels) != 1 {
				t.Fatalf("%s seed %d: %d matches (truncated %v, kernels %v, ledger %+v), %v; oracle %d",
					kind, seed, res.Matches, res.Truncated, res.Kernels, res.Supervised, err, want)
			}
			if n := reg.Counter("mackey.supervisor.retries").Value(); n != int64(res.Supervised.Retries) {
				t.Fatalf("%s seed %d: retries counter %d, ledger %d", kind, seed, n, res.Supervised.Retries)
			}
			retries += res.Supervised.Retries
		}
	}
	if retries == 0 {
		t.Fatal("no chunk failed across the chaos plans; the test exercised no retry")
	}
}

// TestSupervisedSetPoisonTruncates: a chunk that panics on every
// attempt is poisoned; the set's rows on that run and the set as a
// whole are then loudly Truncated, never an exact answer short by the
// chunk.
func TestSupervisedSetPoisonTruncates(t *testing.T) {
	dg := diffGraphs(t, true)[0]
	set := temporal.EvaluationMotifs(dg.deltas[2])
	plan := faultinject.New(1, 0, 0, 0, 0, 0)
	for a := 0; a < 2; a++ {
		plan.Schedule("mackey.chunk", 0, a, faultinject.Panic)
	}
	res, err := mint.Run(context.Background(), dg.g, mint.Query{Motifs: set, Workers: 2, Chaos: plan,
		Supervisor: &mint.SupervisorConfig{MaxAttempts: 2, BackoffBase: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Supervised.Poisoned) == 0 || !res.Truncated || res.Engine != mint.EnginePartial || res.StopReason != runctl.Failed {
		t.Fatalf("poisoned set: engine %s, truncated %v (%v), ledger %+v; want partial, Failed",
			res.Engine, res.Truncated, res.StopReason, res.Supervised)
	}
	for i, pm := range res.Batch.PerMotif {
		if want := oracle.Count(dg.g, set[i]); pm.Matches > want || pm.Matches < want && !pm.Truncated {
			t.Errorf("%s: %d (truncated %v), oracle %d", set[i].Name, pm.Matches, pm.Truncated, want)
		}
	}
}
