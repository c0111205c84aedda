package engines

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mint"
	"mint/internal/faultinject"
	"mint/internal/mackey"
	"mint/internal/oracle"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// The star-kernel differential suite: the closed-form kernels behind
// Run's star route must count exactly what the brute-force oracle
// counts, alone and inside motif sets, and stop loudly with exact lower
// bounds. CI runs it with the rest of TestDifferential* under -race.

// starGraph is a small random graph dense in the inputs a window count
// can get wrong: self-loops, equal timestamps and duplicate edges.
func starGraph(rng *rand.Rand) *temporal.Graph {
	n, m := 4+rng.Intn(8), 120+rng.Intn(120)
	edges := make([]temporal.Edge, 0, m)
	for len(edges) < m {
		e := temporal.Edge{Src: temporal.NodeID(rng.Intn(n)), Dst: temporal.NodeID(rng.Intn(n)), Time: temporal.Timestamp(rng.Intn(150))}
		switch {
		case rng.Intn(8) == 0:
			e.Dst = e.Src // self-loop
		case len(edges) > 0 && rng.Intn(7) == 0:
			e = edges[rng.Intn(len(edges))] // duplicate edge
		case len(edges) > 0 && rng.Intn(6) == 0:
			e.Time = edges[len(edges)-1].Time // timestamp tie
		}
		edges = append(edges, e)
	}
	return temporal.MustNewGraph(edges)
}

// randomStar is an in- or out-star with k edges whose centre and leaves
// carry shuffled motif labels.
func randomStar(rng *rand.Rand, k int, out bool, delta temporal.Timestamp) *temporal.Motif {
	labels := rng.Perm(k + 1)
	edges := make([]temporal.MotifEdge, k)
	for i := range edges {
		c, l := temporal.NodeID(labels[0]), temporal.NodeID(labels[i+1])
		edges[i] = temporal.MotifEdge{Src: c, Dst: l}
		if !out {
			edges[i] = temporal.MotifEdge{Src: l, Dst: c}
		}
	}
	return temporal.MustNewMotif("star", delta, edges)
}

// kernelEngines are the engine-table rows that route stars to kernels.
func kernelEngines() []Engine {
	var out []Engine
	for _, e := range Engines() {
		if strings.HasPrefix(e.Name, "mint/kernel") {
			out = append(out, e)
		}
	}
	return out
}

// TestDifferentialRandomStars: in- and out-stars with 2–5 edges and
// shuffled labels, on random graphs with self-loops, equal timestamps
// and duplicate edges, through every kernel row and a one-motif batch,
// against the oracle.
func TestDifferentialRandomStars(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	engines := kernelEngines()
	if len(engines) != 4 {
		t.Fatalf("%d kernel rows in the engine table, want 4", len(engines))
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		g := starGraph(rng)
		m := randomStar(rng, 2+rng.Intn(4), rng.Intn(2) == 0, temporal.Timestamp(1+rng.Intn(40)))
		want := oracle.Count(g, m)
		for _, eng := range engines {
			got, err := eng.Count(g, m)
			if err != nil || got != want {
				t.Errorf("trial %d %s δ=%d: %s counted %d (%v), oracle %d", trial, m, m.Delta, eng.Name, got, err, want)
			}
		}
		res, err := mint.Run(context.Background(), g, mint.Query{Motifs: []*temporal.Motif{m}, Workers: 3})
		if err != nil || res.Matches != want || len(res.Kernels) != 1 {
			t.Errorf("trial %d %s δ=%d: batch counted %d with kernels %v (%v), oracle %d",
				trial, m, m.Delta, res.Matches, res.Kernels, err, want)
		}
	}
}

// TestDifferentialKernelSets: sets that mix stars (M4, an in-star, a
// two-edge out-star) with M1–M3 at two δ values, so Run splits every
// δ-group into kernel rows and one trie; each row must equal the oracle
// and exactly the stars must report the kernel.
func TestDifferentialKernelSets(t *testing.T) {
	for _, dg := range diffGraphs(t, testing.Short()) {
		var set []*temporal.Motif
		for _, delta := range dg.deltas[:2] {
			in3, _ := temporal.InStar(3, delta)
			out2, _ := temporal.OutStar(2, delta)
			set = append(set, temporal.EvaluationMotifs(delta)...)
			set = append(set, in3, out2)
		}
		want := make([]int64, len(set))
		for i, m := range set {
			want[i] = oracle.Count(dg.g, m)
		}
		for _, workers := range []int{1, 4, 8} {
			res, err := mint.Run(context.Background(), dg.g, mint.Query{Motifs: set, Workers: workers})
			if err != nil || res.Truncated {
				t.Fatalf("%s workers %d: %v (truncated %v)", dg.name, workers, err, res.Truncated)
			}
			for i, pm := range res.Batch.PerMotif {
				_, star := mackey.StarOf(set[i])
				if pm.Matches != want[i] || pm.Kernel != star || pm.Truncated {
					t.Errorf("%s workers %d: %s δ=%d counted %d (kernel %v, truncated %v), oracle %d, star %v",
						dg.name, workers, set[i].Name, set[i].Delta, pm.Matches, pm.Kernel, pm.Truncated, want[i], star)
				}
			}
		}
	}
}

// TestDifferentialKernelCancelled: a kernel run whose context is
// already cancelled stops at its first poll. On one worker, which
// takes the centres in order, the count must be exactly the count of
// the centres finished — a prefix sum of the per-centre counts — and
// loudly Truncated; on four, whose workers may each finish before
// their first poll, it must stay a Truncated lower bound.
func TestDifferentialKernelCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := make([]temporal.Edge, 40_000)
	for i := range edges {
		edges[i] = temporal.Edge{Src: temporal.NodeID(rng.Intn(200)), Dst: temporal.NodeID(rng.Intn(200)), Time: temporal.Timestamp(rng.Intn(40_000))}
	}
	g := temporal.MustNewGraph(edges)
	m := temporal.M4(600)
	perCentre := make([]int64, g.NumNodes())
	full := mackey.Mine(g, m, mackey.Options{Probe: centreProbe{g, perCentre}}).Matches
	prefix := map[int64]bool{0: true}
	var sum int64
	for _, c := range perCentre {
		sum += c
		prefix[sum] = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := mint.Run(ctx, g, mint.Query{Motif: m, Workers: workers})
		if err != nil || len(res.Kernels) != 1 {
			t.Fatalf("workers %d: kernels %v, %v", workers, res.Kernels, err)
		}
		if !res.Truncated || res.StopReason != mint.StopCanceled || res.Engine != mint.EnginePartial {
			t.Fatalf("workers %d: cancelled kernel run not loudly truncated: %+v", workers, res.MineResult)
		}
		if res.Matches > full || (workers == 1 && res.Matches == full) {
			t.Fatalf("workers %d: cancelled run counted %d, full count %d", workers, res.Matches, full)
		}
		if workers == 1 && !prefix[res.Matches] {
			t.Fatalf("cancelled run counted %d, not the count of any prefix of centres", res.Matches)
		}
	}
}

// centreProbe tallies each match under its out-star centre.
type centreProbe struct {
	g      *temporal.Graph
	counts []int64
}

func (p centreProbe) NeighborhoodAccess(int32, bool, int, int, int32) {}
func (p centreProbe) Match(edges []int32)                             { p.counts[p.g.Edges[edges[0]].Src]++ }

// TestDifferentialKernelOverflowRoutesToExecutor: an eight-edge
// out-star on a hub of out-degree 400 is past the kernel's int64 bound
// (7·400^7 > MaxInt64), so Run counts it on the trie executor, exactly.
func TestDifferentialKernelOverflowRoutesToExecutor(t *testing.T) {
	edges := make([]temporal.Edge, 400)
	for i := range edges {
		edges[i] = temporal.Edge{Src: 0, Dst: temporal.NodeID(1 + i%300), Time: temporal.Timestamp(i)}
	}
	g := temporal.MustNewGraph(edges)
	m, err := temporal.OutStar(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := mackey.StarOf(m); !ok || s.Fits(g) {
		t.Fatalf("StarOf = %+v, %v; want a star past the bound", s, ok)
	}
	want := oracle.Count(g, m)
	if want == 0 {
		t.Fatal("no instances: the test graph exercises nothing")
	}
	res, err := mint.Run(context.Background(), g, mint.Query{Motif: m, Workers: 2})
	if err != nil || res.Kernels != nil || res.Stats.NodesExpanded == 0 || res.Matches != want {
		t.Fatalf("Run: %d matches, kernels %v, %d nodes (%v); oracle %d on the executor",
			res.Matches, res.Kernels, res.Stats.NodesExpanded, err, want)
	}
	batch, err := mint.Run(context.Background(), g, mint.Query{Motifs: []*temporal.Motif{temporal.M1(10), m}})
	if err != nil || batch.Kernels != nil || batch.Batch.PerMotif[1].Matches != want {
		t.Fatalf("batch: %s row %+v, kernels %v (%v); oracle %d", m.Name, batch.Batch.PerMotif[1], batch.Kernels, err, want)
	}
}

// TestChaosKernelSoundness adds the kernel to the chaos contract: under
// seeded fault plans at the "mackey.chunk" site the kernel shares with
// the executor, a routed M4 count is exact, an identified injected
// error, or Truncated with a reason and a count within the oracle.
func TestChaosKernelSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := starGraph(rng)
	m := temporal.M4(60)
	want := oracle.Count(g, m)
	fired := int64(0)
	for seed := int64(1); seed <= 6; seed++ {
		plan := faultinject.New(seed, 0.05, 0.05, 0.10, 0.05, 100*time.Microsecond)
		res, err := mint.Run(context.Background(), g, mint.Query{Motif: m, Workers: 4, Chaos: plan})
		if len(res.Kernels) != 1 {
			t.Fatalf("seed %d: M4 not routed to the kernel (kernels %v)", seed, res.Kernels)
		}
		switch {
		case err != nil:
			if !faultinject.IsInjected(err) {
				t.Errorf("seed %d: non-injected error under chaos: %v", seed, err)
			}
		case res.Truncated:
			if res.StopReason == runctl.NotStopped || res.Matches > want {
				t.Errorf("seed %d: truncated with reason %v and count %d (oracle %d)", seed, res.StopReason, res.Matches, want)
			}
		case res.Matches != want:
			t.Errorf("seed %d: SILENTLY WRONG count %d, oracle %d", seed, res.Matches, want)
		}
		for _, n := range plan.Fired() {
			fired += n
		}
	}
	if fired == 0 {
		t.Fatal("no faults fired; the plan rates are too low for this workload")
	}
}
