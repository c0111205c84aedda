package engines

import (
	"math/rand"
	"testing"

	"mint/internal/datasets"
	"mint/internal/oracle"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// diffGraph is one input graph of the differential matrix.
type diffGraph struct {
	name string
	g    *temporal.Graph
	// deltas are the three time windows exercised on this graph, chosen
	// relative to its time span so each motif sees a sparse, a moderate,
	// and a wide window.
	deltas []temporal.Timestamp
}

// diffGraphs builds the input set: two seeded random graphs of different
// density plus a scaled-down seeded dataset from the Table I generator
// (the same generator cmd/gengraph drives), so the harness sees both
// uniform random structure and the hub-heavy, bursty structure the paper's
// workloads have.
func diffGraphs(t testing.TB, short bool) []diffGraph {
	t.Helper()
	graphs := []diffGraph{
		{
			name:   "rand-sparse",
			g:      testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 160, 4000),
			deltas: []temporal.Timestamp{150, 600, 2000},
		},
	}
	if short {
		return graphs
	}
	graphs = append(graphs, diffGraph{
		name:   "rand-dense",
		g:      testutil.RandomGraph(rand.New(rand.NewSource(13)), 12, 220, 2500),
		deltas: []temporal.Timestamp{100, 400, 1200},
	})
	spec, err := datasets.ByName("email-eu")
	if err != nil {
		t.Fatalf("datasets.ByName: %v", err)
	}
	g, err := datasets.GenerateWithNodeScale(spec, 0.001, 0.05)
	if err != nil {
		t.Fatalf("datasets.GenerateWithNodeScale: %v", err)
	}
	graphs = append(graphs, diffGraph{
		name: "email-eu-sample",
		g:    g,
		// The generator preserves the full dataset's edges-per-δ density,
		// so hour-scale windows are already rich here.
		deltas: []temporal.Timestamp{600, temporal.DeltaHour, 3 * temporal.DeltaHour},
	})
	return graphs
}

// TestDifferentialEngines runs every registered engine over the full
// (graph × motif × δ) matrix and requires each count to equal the
// brute-force oracle's. This is the cross-engine guard for the mining
// executor: the pooled/cached/partitioned trie worker, the reference
// implementations and every production entry point must be
// indistinguishable by counts on every input. The CI race job runs this
// test under -race, which additionally proves the worker-local window
// caches and pooled contexts are free of data races at 1, 4, and 8
// workers.
func TestDifferentialEngines(t *testing.T) {
	engines := Engines()
	for _, dg := range diffGraphs(t, testing.Short()) {
		for _, delta := range dg.deltas {
			for _, m := range temporal.EvaluationMotifs(delta) {
				want := oracle.Count(dg.g, m)
				for _, eng := range engines {
					got, err := eng.Count(dg.g, m)
					if err != nil {
						t.Errorf("%s/%s/δ=%d: engine %s failed: %v", dg.name, m.Name, delta, eng.Name, err)
						continue
					}
					if got != want {
						t.Errorf("%s/%s/δ=%d: engine %s counted %d, oracle %d",
							dg.name, m.Name, delta, eng.Name, got, want)
					}
				}
			}
		}
	}
}

// TestDifferentialRandomMotifs widens the motif axis beyond M1–M4:
// randomized connected motifs (2–4 edges) against the oracle on a seeded
// random graph, through every engine. Catches shape-specific divergence —
// e.g. repeated node pairs or revisiting motifs — that the fixed
// evaluation motifs cannot.
func TestDifferentialRandomMotifs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: covered by TestDifferentialEngines")
	}
	rng := rand.New(rand.NewSource(42))
	g := testutil.RandomGraph(rng, 16, 140, 3000)
	engines := Engines()
	for trial := 0; trial < 6; trial++ {
		m := testutil.RandomConnectedMotif(rng, 2+rng.Intn(3), temporal.Timestamp(200+rng.Int63n(1500)))
		want := oracle.Count(g, m)
		for _, eng := range engines {
			got, err := eng.Count(g, m)
			if err != nil {
				t.Errorf("trial %d (%s): engine %s failed: %v", trial, m, eng.Name, err)
				continue
			}
			if got != want {
				t.Errorf("trial %d (%s): engine %s counted %d, oracle %d", trial, m, eng.Name, got, want)
			}
		}
	}
}
