package mint

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"mint/internal/runctl"
	"mint/internal/task"
	"mint/internal/testutil"
)

// denseTestGraph is big enough that every engine crosses several
// cancellation checkpoints.
func denseTestGraph() (*Graph, *Motif) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(rng, 24, 4000, 500)
	return g, M1(400)
}

func TestCtxShimsMatchBlockingAPI(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	ctx := context.Background()

	res, err := Run(ctx, g, Query{Motif: m, Workers: 1})
	if err != nil || res.Truncated || res.Matches != want {
		t.Fatalf("Run = %d (truncated=%v), %v; want %d", res.Matches, res.Truncated, err, want)
	}
	pres, err := CountParallelCtx(ctx, g, m, 4, Budget{})
	if err != nil || pres.Matches != want {
		t.Fatalf("CountParallelCtx = %d, %v; want %d", pres.Matches, err, want)
	}
	if got := CountTaskQueue(g, m, 4, 16); got != want {
		t.Fatalf("CountTaskQueue = %d; want %d", got, want)
	}
}

// TestEnumerateCtxMaxMatches: with a match budget of n, EnumerateCtx must
// stream exactly the first n matches of the deterministic search order.
func TestEnumerateCtxMaxMatches(t *testing.T) {
	g, m := denseTestGraph()
	var full [][]int32
	Enumerate(g, m, func(edges []int32) {
		cp := make([]int32, len(edges))
		copy(cp, edges)
		full = append(full, cp)
	})
	if len(full) < 10 {
		t.Fatalf("test graph too sparse: %d matches", len(full))
	}
	const n = 10
	var got [][]int32
	res := EnumerateCtx(context.Background(), g, m, Budget{MaxMatches: n}, func(edges []int32) {
		cp := make([]int32, len(edges))
		copy(cp, edges)
		got = append(got, cp)
	})
	if len(got) != n {
		t.Fatalf("streamed %d matches, want exactly %d", len(got), n)
	}
	if !res.Truncated || res.StopReason != StopMatchBudget {
		t.Fatalf("truncated=%v reason=%v, want MatchBudget", res.Truncated, res.StopReason)
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != full[i][j] {
				t.Fatalf("match %d differs from full enumeration: %v vs %v", i, got[i], full[i])
			}
		}
	}
}

// TestEnumerateAllocsFlat: the visit slice is one reused buffer, so
// streaming 1,000 matches allocates exactly what streaming 10 does.
func TestEnumerateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled workers at random under -race")
	}
	g, m := denseTestGraph()
	if n := Count(g, m); n < 1000 {
		t.Fatalf("test graph too sparse: %d matches", n)
	}
	allocs := func(n int64) float64 {
		var seen int64
		visit := func([]int32) { seen++ }
		a := testing.AllocsPerRun(50, func() {
			EnumerateCtx(context.Background(), g, m, Budget{MaxMatches: n}, visit)
		})
		if want := 51 * n; seen != want {
			t.Fatalf("streamed %d matches over 51 runs, want %d", seen, want)
		}
		return a
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Fatalf("EnumerateCtx allocates %.0f per run at 10 matches, %.0f at 1,000", few, many)
	}
}

func TestCountTaskQueueCtxTruncates(t *testing.T) {
	g, m := denseTestGraph()
	res, err := task.RunQueueCtl(g, m, 4, 16,
		runctl.New(context.Background(), Budget{Deadline: time.Now().Add(-time.Second)}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != StopDeadline {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", res.Truncated, res.StopReason)
	}
}

func TestCountWithFallbackExactPath(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	res, err := Run(context.Background(), g, Query{Motif: m, Fallback: &ApproxConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineExact {
		t.Fatalf("engine = %q, want exact", res.Engine)
	}
	if int64(res.Count) != want || res.Matches != want {
		t.Fatalf("Count = %v, Matches = %d; want %d", res.Count, res.Matches, want)
	}
}

// TestCountWithFallbackApproximatePath: an exact stage strangled by a tiny
// node budget must degrade to the PRESTO estimate, flagged approximate,
// with the exact partial count still reported as a lower bound.
func TestCountWithFallbackApproximatePath(t *testing.T) {
	g, m := denseTestGraph()
	full := Count(g, m)
	q := Query{
		Motif:    m,
		Budget:   Budget{MaxNodes: 1}, // force truncation almost immediately
		Workers:  4,
		Fallback: &ApproxConfig{Windows: 8, C: 1.25, Seed: 3},
	}
	res, err := Run(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine == EngineExact {
		t.Fatal("exact stage claimed success under a 1-node budget")
	}
	if res.Engine != EnginePresto {
		t.Fatalf("fallback did not produce an approximate answer: %+v", res)
	}
	if !res.Truncated || res.StopReason != StopNodeBudget {
		t.Fatalf("exact stage: truncated=%v reason=%v, want NodeBudget",
			res.Truncated, res.StopReason)
	}
	if res.Matches < 0 || res.Matches > full {
		t.Fatalf("exact partial = %d outside [0, %d]", res.Matches, full)
	}
	if res.Approx.WindowsRun != 8 {
		t.Fatalf("estimator ran %d windows, want 8", res.Approx.WindowsRun)
	}
	if res.Count <= 0 {
		t.Fatalf("estimate %v is not positive on a dense graph", res.Count)
	}
}

// TestCountWithFallbackEngineAttribution: every fallback outcome names
// the engine that answered and bumps the matching obs counter, so a
// serving layer can prove from metrics which path traffic took.
func TestCountWithFallbackEngineAttribution(t *testing.T) {
	g, m := denseTestGraph()
	reg := NewObsRegistry("fallback_test")

	res, err := Run(context.Background(), g, Query{Motif: m, Fallback: &ApproxConfig{}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineExact {
		t.Fatalf("Engine = %q, want %q", res.Engine, EngineExact)
	}
	if got := reg.Counter("fallback.exact").Value(); got != 1 {
		t.Fatalf("fallback.exact = %d, want 1", got)
	}

	q := Query{
		Motif:    m,
		Budget:   Budget{MaxNodes: 1},
		Fallback: &ApproxConfig{Windows: 4, C: 1.25, Seed: 3},
		Obs:      reg,
	}
	res, err = Run(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EnginePresto {
		t.Fatalf("Engine = %q, want %q", res.Engine, EnginePresto)
	}
	if got := reg.Counter("fallback.presto").Value(); got != 1 {
		t.Fatalf("fallback.presto = %d, want 1", got)
	}

	// A context that is already dead before the estimator can run a
	// single window leaves only the partial lower bound.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Run(ctx, g, Query{Motif: m, Budget: Budget{MaxNodes: 1}, Fallback: &ApproxConfig{}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EnginePartial {
		t.Fatalf("Engine = %q, want %q", res.Engine, EnginePartial)
	}
	if got := reg.Counter("fallback.partial").Value(); got != 1 {
		t.Fatalf("fallback.partial = %d, want 1", got)
	}
}

func TestEstimateApproxCtxCanceled(t *testing.T) {
	g, m := denseTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := EstimateApproxCtx(ctx, g, m, ApproxConfig{Windows: 8, C: 1.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != StopCanceled {
		t.Fatalf("truncated=%v reason=%v, want Canceled", res.Truncated, res.StopReason)
	}
	if res.WindowsRun != 0 {
		t.Fatalf("pre-canceled estimator completed %d windows", res.WindowsRun)
	}
}

func TestSimulateCtxTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	g := testutil.RandomGraph(rng, 24, 1200, 500)
	m := M1(400)
	cfg := DefaultSimConfig()
	cfg.PEs = 8

	want, err := Simulate(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateCtx(context.Background(), g, m, cfg, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Matches != want.Matches {
		t.Fatalf("unbounded SimulateCtx = %d (truncated=%v), want %d",
			res.Matches, res.Truncated, want.Matches)
	}

	tres, err := SimulateCtx(context.Background(), g, m, cfg,
		Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !tres.Truncated || tres.StopReason != StopDeadline {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", tres.Truncated, tres.StopReason)
	}
	if tres.Matches > want.Matches {
		t.Fatalf("partial matches %d exceed full %d", tres.Matches, want.Matches)
	}
}

func TestSimulateGPUCtxTruncates(t *testing.T) {
	g, m := denseTestGraph()
	res, err := SimulateGPUCtx(context.Background(), g, m, DefaultGPUConfig(),
		Budget{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != StopDeadline {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", res.Truncated, res.StopReason)
	}
}

// TestCountSupervisedAndResumeCtx drives the public fault-tolerance API
// end to end: a supervised run matches the plain count; a budget-killed
// checkpointed run resumed from its checkpoint converges to the identical
// count; and a chaos plan with scheduled transient errors is retried
// away without truncation.
func TestCountSupervisedAndResumeCtx(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	ctx := context.Background()

	res, err := Run(ctx, g, Query{Motif: m, Workers: 4, Supervisor: &SupervisorConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("supervised Run = %d (truncated=%v), want %d", res.Matches, res.Truncated, want)
	}

	// Interrupt with a match budget, then resume without one.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	part, err := Run(ctx, g, Query{Motif: m, Workers: 2, Budget: Budget{MaxMatches: want / 3},
		Supervisor: &SupervisorConfig{CheckpointPath: path, CheckpointEvery: 1, CheckpointInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Truncated {
		t.Fatalf("budgeted phase was not truncated (matches=%d)", part.Matches)
	}
	resumed, err := Run(ctx, g, Query{Motif: m, Workers: 4,
		Supervisor: &SupervisorConfig{CheckpointPath: path, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Truncated || resumed.Matches != want {
		t.Fatalf("resumed Run = %d (truncated=%v), want %d", resumed.Matches, resumed.Truncated, want)
	}

	// Transient chunk errors under a chaos plan: retried away, still exact.
	plan, err := ParseChaosPlan("seed=3,error=0.1,sites=mackey.chunk")
	if err != nil {
		t.Fatal(err)
	}
	chaotic, err := Run(ctx, g, Query{Motif: m, Workers: 4,
		Supervisor: &SupervisorConfig{MaxAttempts: 6}, Chaos: plan})
	if err != nil {
		t.Fatal(err)
	}
	if chaotic.Truncated || chaotic.Matches != want {
		t.Fatalf("chaotic supervised run = %d (truncated=%v, poisoned=%d), want %d",
			chaotic.Matches, chaotic.Truncated, len(chaotic.Supervised.Poisoned), want)
	}
}
