package comine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mint/internal/mackey"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// oracle mines one motif with the sequential reference miner.
func oracle(g *temporal.Graph, m *temporal.Motif) int64 {
	return mackey.Mine(g, m, mackey.Options{}).Matches
}

func mineAll(t *testing.T, g *temporal.Graph, motifs []*temporal.Motif, workers int) Result {
	t.Helper()
	plan, err := PlanSet(motifs)
	if err != nil {
		t.Fatalf("PlanSet: %v", err)
	}
	res, err := MineCtx(context.Background(), g, plan, Options{Workers: workers}, runctl.Budget{})
	if err != nil {
		t.Fatalf("MineCtx: %v", err)
	}
	return res
}

// TestPlanShapeM1M4 pins the plan the Paranjape family produces: one
// δ-group, M1/M2/M3 sharing the canonical prefix (0→1, 1→2) and M4
// (canonical second edge 0→2) forking at depth 1.
func TestPlanShapeM1M4(t *testing.T) {
	plan, err := PlanSet(temporal.EvaluationMotifs(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("M1-M4 share δ, want 1 group, got %d", len(plan.Groups))
	}
	grp := plan.Groups[0]
	if len(grp.Members) != 4 {
		t.Fatalf("group members = %d, want 4", len(grp.Members))
	}
	if len(grp.Root.Children) != 1 {
		t.Fatalf("canonical first edges must all be 0->1: %d root children", len(grp.Root.Children))
	}
	if grp.ForkPoints == 0 {
		t.Error("M4 diverges from M1/M2/M3 at depth 1; want at least one fork point")
	}
	// 14 total member edges; trie folds the shared (0→1) and (0→1,1→2)
	// prefixes, so strictly fewer trie edges than total.
	if grp.TrieEdges >= grp.TotalEdges {
		t.Errorf("no sharing: trie %d vs total %d edges", grp.TrieEdges, grp.TotalEdges)
	}
	if r := plan.SharedRatio(); r <= 0 || r >= 1 {
		t.Errorf("shared ratio = %v, want in (0, 1)", r)
	}
}

// TestPlanPartitionsInput checks the structural invariant the executor
// rests on: terminal sets across all groups partition the input
// indexes exactly, duplicates included.
func TestPlanPartitionsInput(t *testing.T) {
	motifs := []*temporal.Motif{
		temporal.M1(50), temporal.M2(50), temporal.M1(50), // dup, same δ
		temporal.M1(99), // same motif, different δ
		temporal.MustNewMotif("pfx", 50, []temporal.MotifEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}), // prefix of M1
	}
	plan, err := PlanSet(motifs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 2 {
		t.Fatalf("two distinct δ, want 2 groups, got %d", len(plan.Groups))
	}
	assertPartition(t, plan, len(motifs))
}

// assertPartition fails unless every input index 0..n-1 is terminal at
// exactly one trie node, and group membership matches.
func assertPartition(t *testing.T, plan *Plan, n int) {
	t.Helper()
	seen := make([]int, n)
	var walk func(nd *mackey.Node)
	walk = func(nd *mackey.Node) {
		for _, idx := range nd.Terminal {
			if idx < 0 || idx >= n {
				t.Fatalf("terminal index %d out of range [0,%d)", idx, n)
			}
			seen[idx]++
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	members := 0
	for _, grp := range plan.Groups {
		walk(grp.Root)
		members += len(grp.Members)
	}
	for idx, k := range seen {
		if k != 1 {
			t.Errorf("input motif %d terminal at %d trie nodes, want exactly 1", idx, k)
		}
	}
	if members != n {
		t.Errorf("groups hold %d members, want %d", members, n)
	}
}

// TestCoMineMatchesOracle is the core equivalence check: co-mined
// counts are bit-identical to independent per-motif runs, across
// worker counts, motif subsets (including duplicates and prefix
// motifs), and mixed δ.
func TestCoMineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := testutil.RandomGraph(rng, 30, 260, 5000)
	sets := [][]*temporal.Motif{
		temporal.EvaluationMotifs(400),
		temporal.EvaluationMotifs(1500),
		{temporal.M1(400)},
		{temporal.M2(400), temporal.M2(400)}, // duplicates
		{temporal.M1(400), temporal.M3(900)}, // mixed δ → two groups
		{
			temporal.MustNewMotif("pfx", 700, []temporal.MotifEdge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}),
			temporal.M1(700), // pfx is a proper prefix of M1's canonical form
		},
	}
	for si, motifs := range sets {
		want := make([]int64, len(motifs))
		for i, m := range motifs {
			want[i] = oracle(g, m)
		}
		for _, workers := range []int{1, 4} {
			res := mineAll(t, g, motifs, workers)
			for i := range motifs {
				if res.PerMotif[i].Matches != want[i] {
					t.Errorf("set %d workers %d motif %d (%s δ=%d): co-mined %d, oracle %d",
						si, workers, i, motifs[i].String(), motifs[i].Delta,
						res.PerMotif[i].Matches, want[i])
				}
				if res.PerMotif[i].Truncated {
					t.Errorf("set %d motif %d: unbudgeted run marked truncated", si, i)
				}
			}
		}
	}
}

// TestCoMineRandomMotifs drives random (including disconnected-prefix)
// motifs through the co-miner against the oracle.
func TestCoMineRandomMotifs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(rng, 24, 200, 4000)
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(4)
		motifs := make([]*temporal.Motif, k)
		for i := range motifs {
			delta := temporal.Timestamp(200 + rng.Intn(3)*400)
			if rng.Intn(4) == 0 {
				motifs[i] = testutil.RandomMotif(rng, 2+rng.Intn(2), delta)
			} else {
				motifs[i] = testutil.RandomConnectedMotif(rng, 2+rng.Intn(3), delta)
			}
		}
		res := mineAll(t, g, motifs, 2)
		for i, m := range motifs {
			if want := oracle(g, m); res.PerMotif[i].Matches != want {
				t.Errorf("trial %d motif %d (%s δ=%d): co-mined %d, oracle %d",
					trial, i, m.String(), m.Delta, res.PerMotif[i].Matches, want)
			}
		}
	}
}

// TestCoMineRootRange checks the root-window partition property: runs
// restricted to disjoint root ranges sum to the unrestricted counts.
func TestCoMineRootRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 20, 150, 3000)
	motifs := temporal.EvaluationMotifs(800)
	plan, err := PlanSet(motifs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MineCtx(context.Background(), g, plan, Options{Workers: 2}, runctl.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	mid := temporal.EdgeID(g.NumEdges() / 2)
	sums := make([]int64, len(motifs))
	for _, rr := range []mackey.RootRange{{Lo: 0, Hi: mid}, {Lo: mid, Hi: temporal.EdgeID(g.NumEdges())}} {
		part, err := MineCtx(context.Background(), g, plan, Options{Workers: 2, Roots: &rr}, runctl.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range sums {
			sums[i] += part.PerMotif[i].Matches
		}
	}
	for i := range motifs {
		if sums[i] != full.PerMotif[i].Matches {
			t.Errorf("motif %d: root-range sum %d != full %d", i, sums[i], full.PerMotif[i].Matches)
		}
	}
}

// TestCoMineTruncationIsLoud: a budget-stopped run must mark every
// member of the stopped (and later) groups truncated with the reason,
// and the partial counts must stay below or at the full counts.
func TestCoMineTruncationIsLoud(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 30, 400, 4000)
	motifs := []*temporal.Motif{
		temporal.M1(1500), temporal.M2(1500), // group 1 (shared δ)
		temporal.M1(999), // group 2
	}
	full := mineAll(t, g, motifs, 1)

	plan, _ := PlanSet(motifs)
	res, err := MineCtx(context.Background(), g, plan, Options{Workers: 1}, runctl.Budget{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != runctl.NodeBudget {
		t.Fatalf("MaxNodes=1: Truncated=%v reason=%v, want node budget", res.Truncated, res.StopReason)
	}
	for i := range motifs {
		pm := res.PerMotif[i]
		if !pm.Truncated {
			t.Errorf("motif %d not marked truncated under MaxNodes=1", i)
		}
		if pm.StopReason == runctl.NotStopped {
			t.Errorf("motif %d truncated without a reason", i)
		}
		if pm.Matches > full.PerMotif[i].Matches {
			t.Errorf("motif %d partial %d exceeds full %d", i, pm.Matches, full.PerMotif[i].Matches)
		}
	}

	// Dead context: everything truncated Canceled, even complete groups.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = MineCtx(ctx, g, plan, Options{Workers: 1}, runctl.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range motifs {
		if !res.PerMotif[i].Truncated || res.PerMotif[i].StopReason != runctl.Canceled {
			t.Errorf("dead ctx motif %d: Truncated=%v reason=%v, want canceled",
				i, res.PerMotif[i].Truncated, res.PerMotif[i].StopReason)
		}
	}
}

// TestCoMineMatchBudget: a MaxMatches budget stops the run promptly
// and the total match count does not wildly overshoot (each worker
// detects the limit at its next match, like the single-motif miners).
func TestCoMineMatchBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(rng, 20, 300, 2000)
	motifs := temporal.EvaluationMotifs(1000)
	plan, _ := PlanSet(motifs)
	res, err := MineCtx(context.Background(), g, plan, Options{Workers: 1}, runctl.Budget{MaxMatches: 5})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, pm := range res.PerMotif {
		total += pm.Matches
	}
	if total == 0 {
		t.Skip("graph produced no matches; budget not exercised")
	}
	if !res.Truncated && total > 5 {
		t.Errorf("run found %d matches over a 5-match budget without truncating", total)
	}
	// Sequential single-worker truncation stops within one bookkeeping
	// step of the budget: at most the terminal-set size past the limit.
	if res.Truncated && total > 5+4 {
		t.Errorf("sequential match-budget overshoot: %d matches for budget 5", total)
	}
}

// TestCoMineDeterministicTruncation: the sequential (workers=1) node
// budget truncation point is deterministic across runs.
func TestCoMineDeterministicTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := testutil.RandomGraph(rng, 24, 300, 4000)
	plan, _ := PlanSet(temporal.EvaluationMotifs(1200))
	b := runctl.Budget{MaxNodes: 4096}
	first, err := MineCtx(context.Background(), g, plan, Options{Workers: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := MineCtx(context.Background(), g, plan, Options{Workers: 1}, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first.PerMotif {
			if first.PerMotif[i].Matches != again.PerMotif[i].Matches {
				t.Fatalf("trial %d motif %d: partial count %d != %d — sequential truncation is nondeterministic",
					trial, i, again.PerMotif[i].Matches, first.PerMotif[i].Matches)
			}
		}
	}
}

// TestCoMineSharedWorkObserved: co-mining M1-M4 must actually share
// work (SharedExpansions > 0) and expand strictly fewer nodes than
// the four per-motif runs combined.
func TestCoMineSharedWorkObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomGraph(rng, 40, 500, 6000)
	motifs := temporal.EvaluationMotifs(1000)
	res := mineAll(t, g, motifs, 1)
	if res.SharedExpansions == 0 {
		t.Error("co-mining M1-M4 reported zero shared expansions")
	}
	var separate int64
	for _, m := range motifs {
		r := mackey.Mine(g, m, mackey.Options{})
		separate += r.Stats.NodesExpanded
	}
	if res.Stats.NodesExpanded >= separate {
		t.Errorf("co-mined expansions %d not below per-motif total %d",
			res.Stats.NodesExpanded, separate)
	}
}

// TestCoMineDeadlineBudget smoke-checks the wall-clock budget path.
func TestCoMineDeadlineBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomGraph(rng, 30, 300, 3000)
	plan, _ := PlanSet(temporal.EvaluationMotifs(900))
	b := runctl.Budget{Deadline: time.Now().Add(-time.Second)}
	res, err := MineCtx(context.Background(), g, plan, Options{Workers: 2}, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.StopReason != runctl.DeadlineExceeded {
		t.Errorf("expired deadline: Truncated=%v reason=%v", res.Truncated, res.StopReason)
	}
}
