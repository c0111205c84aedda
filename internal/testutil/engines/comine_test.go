package engines

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mint/internal/comine"
	"mint/internal/faultinject"
	"mint/internal/mackey"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// The co-mining differential matrix: one co-mined run over a motif SET
// must be bit-identical, per motif, to independent single-motif runs.
// This is the equivalence the co-miner claims by construction (the
// co-mined walk is the mackey worker itself over a shared-prefix trie,
// bookkeeping forked only at trie divergence points); these tests are
// the claim's enforcement, run under -race by the CI matrix.

// comineAll co-mines the whole set and returns the per-motif counts in
// input order.
func comineAll(tb testing.TB, g *temporal.Graph, motifs []*temporal.Motif, workers int) []int64 {
	tb.Helper()
	plan, err := comine.PlanSet(motifs)
	if err != nil {
		tb.Fatalf("PlanSet: %v", err)
	}
	res, err := comine.MineCtx(context.Background(), g, plan,
		comine.Options{Workers: workers}, runctl.Budget{})
	if err != nil {
		tb.Fatalf("MineCtx: %v", err)
	}
	counts := make([]int64, len(res.PerMotif))
	for i, pm := range res.PerMotif {
		if pm.Truncated {
			tb.Fatalf("unbudgeted co-mined run truncated (%v)", pm.StopReason)
		}
		counts[i] = pm.Matches
	}
	return counts
}

// soloCounts runs each motif through the single-motif reference miner.
func soloCounts(g *temporal.Graph, motifs []*temporal.Motif) []int64 {
	counts := make([]int64, len(motifs))
	for i, m := range motifs {
		counts[i] = mackey.Mine(g, m, mackey.Options{}).Matches
	}
	return counts
}

// TestDifferentialComineSets co-mines the full {M1..M4} family (plus a
// duplicate and a strict-prefix motif, the planner's sharing-heavy
// shapes) over the differential graph set at three δ values and 1/4/8
// workers, and requires every per-motif count to equal its single-motif
// twin bit for bit.
func TestDifferentialComineSets(t *testing.T) {
	for _, dg := range diffGraphs(t, testing.Short()) {
		for _, delta := range dg.deltas {
			family := temporal.EvaluationMotifs(delta)
			prefix, err := temporal.ParseMotif("prefix", delta, "0->1,1->2")
			if err != nil {
				t.Fatal(err)
			}
			sets := [][]*temporal.Motif{
				family,
				{family[0], family[1], family[0]}, // duplicate motif
				append([]*temporal.Motif{prefix}, family...), // strict prefix of M2/M3
			}
			for si, set := range sets {
				want := soloCounts(dg.g, set)
				for _, workers := range []int{1, 4, 8} {
					got := comineAll(t, dg.g, set, workers)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s/δ=%d set %d workers %d: motif %s co-mined %d, solo %d",
								dg.name, delta, si, workers, set[i].Name, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestDifferentialComineMixedDeltas pins the multi-group path: motifs
// at different δ cannot share a traversal, so the planner must split
// them into δ-groups and each group's counts must still match solo
// runs exactly.
func TestDifferentialComineMixedDeltas(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 160, 4000)
	set := []*temporal.Motif{
		temporal.M1(150), temporal.M2(150),
		temporal.M1(600), temporal.M3(600),
		temporal.M2(2000),
	}
	want := soloCounts(g, set)
	for _, workers := range []int{1, 4} {
		got := comineAll(t, g, set, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers %d: motif %s/δ=%d co-mined %d, solo %d",
					workers, set[i].Name, set[i].Delta, got[i], want[i])
			}
		}
	}
}

// TestDifferentialComineBudgetTruncation runs the co-miner out of node
// budget and requires the truncation to be LOUD per motif: every entry
// of a stopped or never-run group flagged with the shared stop reason,
// partial counts staying exact lower bounds. A budget-starved batch
// that returned unmarked short counts would be silently wrong — the
// one outcome this harness exists to forbid.
func TestDifferentialComineBudgetTruncation(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(13)), 12, 220, 2500)
	set := []*temporal.Motif{
		temporal.M1(400), temporal.M2(400),
		temporal.M1(1200), // second δ-group: must NOT get a fresh budget
	}
	full := soloCounts(g, set)
	plan, err := comine.PlanSet(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := comine.MineCtx(context.Background(), g, plan,
		comine.Options{Workers: 4}, runctl.Budget{MaxNodes: 1})
	if err != nil {
		t.Fatalf("MineCtx: %v", err)
	}
	if !res.Truncated || res.StopReason != runctl.NodeBudget {
		t.Fatalf("MaxNodes=1 run not truncated as node budget: truncated=%v reason=%v",
			res.Truncated, res.StopReason)
	}
	for i, pm := range res.PerMotif {
		if !pm.Truncated {
			t.Errorf("motif %d (%s/δ=%d): unmarked entry under an exhausted shared budget",
				i, pm.Motif.Name, pm.Motif.Delta)
		}
		if pm.StopReason == runctl.NotStopped {
			t.Errorf("motif %d (%s): truncated without a stop reason", i, pm.Motif.Name)
		}
		if pm.Matches > full[i] {
			t.Errorf("motif %d (%s): partial %d exceeds full count %d",
				i, pm.Motif.Name, pm.Matches, full[i])
		}
	}
}

// comineProperty is one trial of the property test: does a co-mined
// run over this motif set on this graph match per-motif solo runs?
// Returns the index of the first diverging motif, or -1.
func comineProperty(tb testing.TB, g *temporal.Graph, set []*temporal.Motif, workers int) int {
	want := soloCounts(g, set)
	got := comineAll(tb, g, set, workers)
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// describeSet renders a motif set as the reproducible (spec, δ) list a
// failure report needs.
func describeSet(set []*temporal.Motif) string {
	parts := make([]string, len(set))
	for i, m := range set {
		parts[i] = fmt.Sprintf("{%s δ=%d}", m, m.Delta)
	}
	return strings.Join(parts, " ")
}

// TestDifferentialComineRandomSets is the property test: random motif
// subsets over random graphs, co-mined counts must equal per-motif solo
// counts. On failure it SHRINKS the counterexample — greedily dropping
// motifs while the divergence persists — and prints the minimal
// (graph seed, motif set, δ) triple, so the reproducer is one pasted
// line, not a 6-motif haystack.
func TestDifferentialComineRandomSets(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	deltas := []temporal.Timestamp{150, 400, 900, 2000}
	for trial := 0; trial < trials; trial++ {
		graphSeed := int64(100 + trial)
		rng := rand.New(rand.NewSource(graphSeed))
		g := testutil.RandomGraph(rng, 10+rng.Intn(16), 80+rng.Intn(160), 3000)
		setSize := 2 + rng.Intn(5)
		set := make([]*temporal.Motif, setSize)
		for i := range set {
			delta := deltas[rng.Intn(len(deltas))]
			if rng.Intn(2) == 0 {
				set[i] = testutil.RandomConnectedMotif(rng, 2+rng.Intn(3), delta)
			} else {
				set[i] = testutil.RandomMotif(rng, 2+rng.Intn(3), delta)
			}
		}
		workers := 1 + rng.Intn(4)
		if bad := comineProperty(t, g, set, workers); bad >= 0 {
			// Shrink: drop motifs one at a time as long as some motif still
			// diverges; the survivor set is the minimal counterexample.
			shrunk := append([]*temporal.Motif(nil), set...)
			for i := 0; i < len(shrunk) && len(shrunk) > 1; {
				cand := append(append([]*temporal.Motif(nil), shrunk[:i]...), shrunk[i+1:]...)
				if comineProperty(t, g, cand, workers) >= 0 {
					shrunk = cand
					continue
				}
				i++
			}
			t.Fatalf("co-mined counts diverge from solo runs\n"+
				"  reproducer: graph seed %d, workers %d\n"+
				"  motif set:  %s\n"+
				"  shrunk to:  %s",
				graphSeed, workers, describeSet(set), describeSet(shrunk))
		}
	}
}

// TestChaosComineSoundness adds the co-miner to the fault-injection
// soundness matrix: under seeded mixed-kind fault plans firing at the
// "mackey.chunk" site every co-mined group runs through, a batch run must either return an identified
// injected error or mark every affected motif Truncated with a reason
// and a count bounded by the oracle. The batch's extra obligation over
// the single-motif engines: soundness must hold for EVERY entry of the
// set, not just an aggregate.
func TestChaosComineSoundness(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 160, 4000)
	set := []*temporal.Motif{
		temporal.M1(600), temporal.M2(600), // one shared group: mackey.chunk live
		temporal.M1(2000), // second group, hit only if the first survives
	}
	want := soloCounts(g, set)
	plan, err := comine.PlanSet(set)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	totalFired := int64(0)
	for _, seed := range seeds {
		fp := faultinject.New(seed, 0.05, 0.05, 0.10, 0.05, 0)
		ctl := chaosCtl(fp)
		res, err := comine.MineCtx(context.Background(), g, plan,
			comine.Options{Workers: 4, Ctl: ctl}, runctl.Budget{})
		switch {
		case err != nil:
			if !faultinject.IsInjected(err) && res.StopReason != runctl.FaultInjected {
				t.Errorf("seed %d: non-injected error under chaos: %v", seed, err)
			}
		case res.Truncated:
			if res.StopReason != runctl.FaultInjected && res.StopReason != runctl.Failed {
				t.Errorf("seed %d: chaos truncation with unexpected reason %v", seed, res.StopReason)
			}
		}
		for i, pm := range res.PerMotif {
			switch {
			case pm.Truncated:
				if pm.StopReason == runctl.NotStopped {
					t.Errorf("seed %d motif %d (%s): truncated without a stop reason", seed, i, pm.Motif.Name)
				}
				if pm.Matches > want[i] {
					t.Errorf("seed %d motif %d (%s): truncated count %d exceeds oracle %d",
						seed, i, pm.Motif.Name, pm.Matches, want[i])
				}
			default:
				if pm.Matches != want[i] {
					t.Errorf("seed %d motif %d (%s): SILENTLY WRONG count %d, oracle %d",
						seed, i, pm.Motif.Name, pm.Matches, want[i])
				}
			}
		}
		for _, n := range fp.Fired() {
			totalFired += n
		}
	}
	if totalFired == 0 {
		t.Fatal("no faults fired across the co-mining chaos matrix; rates too low for this workload")
	}
}
