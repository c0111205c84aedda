package mint

import (
	"context"
	mrand "math/rand"
	"testing"
)

func TestProfileCountsAgainstDirectCount(t *testing.T) {
	g, err := Dataset("em", "", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	motifs := MotifLibrary(DeltaHour)
	prof := Profile(g, motifs, 2)
	if len(prof) != len(motifs) {
		t.Fatalf("profile length %d vs %d motifs", len(prof), len(motifs))
	}
	for i, mc := range prof {
		if mc.Motif != motifs[i] {
			t.Fatalf("profile order drifted at %d", i)
		}
		if want := Count(g, mc.Motif); mc.Count != want {
			t.Errorf("%s: profile count %d vs direct %d", mc.Motif.Name, mc.Count, want)
		}
		if mc.Count > 0 && mc.Density <= 0 {
			t.Errorf("%s: density %v with count %d", mc.Motif.Name, mc.Density, mc.Count)
		}
	}
}

func TestTopMotifsSorted(t *testing.T) {
	prof := []MotifCount{
		{Motif: M1(10), Density: 1},
		{Motif: M2(10), Density: 5},
		{Motif: M3(10), Density: 3},
	}
	top := TopMotifs(prof)
	if top[0].Density != 5 || top[1].Density != 3 || top[2].Density != 1 {
		t.Fatalf("not sorted: %v", top)
	}
	// Original untouched.
	if prof[0].Density != 1 {
		t.Fatal("TopMotifs mutated input")
	}
}

func TestFingerprintDistance(t *testing.T) {
	a := []MotifCount{{Motif: M1(10), Density: 1}, {Motif: M2(10), Density: 2}}
	b := []MotifCount{{Motif: M1(10), Density: 1}, {Motif: M2(10), Density: 2}}
	if d := FingerprintDistance(a, b); d != 0 {
		t.Fatalf("identical fingerprints: distance %v", d)
	}
	c := []MotifCount{{Motif: M1(10), Density: 9}, {Motif: M2(10), Density: 2}}
	if d := FingerprintDistance(a, c); d <= 0 {
		t.Fatalf("different fingerprints: distance %v", d)
	}
	mustPanicProfile(t, func() { FingerprintDistance(a, a[:1]) })
	mismatched := []MotifCount{{Motif: M2(10), Density: 1}, {Motif: M1(10), Density: 2}}
	mustPanicProfile(t, func() { FingerprintDistance(a, mismatched) })
}

func mustPanicProfile(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestFingerprintSeparatesTemporalBehavior: two graphs with identical
// static structure but different temporal clustering must be farther apart
// than two samples of the same behavior — the socialflow example's claim
// as a test.
func TestFingerprintSeparatesTemporalBehavior(t *testing.T) {
	bursty1 := buildBehaviorGraph(t, 1, true)
	bursty2 := buildBehaviorGraph(t, 2, true)
	uniform := buildBehaviorGraph(t, 3, false)
	motifs := MotifLibrary(DeltaHour)
	p1 := Profile(bursty1, motifs, 2)
	p2 := Profile(bursty2, motifs, 2)
	pu := Profile(uniform, motifs, 2)
	within := FingerprintDistance(p1, p2)
	across := FingerprintDistance(p1, pu)
	if across <= within {
		t.Errorf("fingerprint failed to separate behaviors: within=%v across=%v", within, across)
	}
}

func buildBehaviorGraph(t *testing.T, seed int64, bursty bool) *Graph {
	t.Helper()
	rng := newDeterministicRand(seed)
	const users, msgs = 60, 3000
	const span = 7 * 86_400
	var edges []Edge
	for i := 0; i < msgs; i++ {
		var ts Timestamp
		if bursty {
			w := rng.Intn(24)
			ts = Timestamp(w)*(span/24) + Timestamp(rng.Int63n(3600))
		} else {
			ts = Timestamp(rng.Int63n(span))
		}
		src := NodeID(rng.Intn(users))
		dst := NodeID(rng.Intn(users))
		if src == dst {
			dst = (dst + 1) % users
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Time: ts})
	}
	g, err := NewGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newDeterministicRand isolates the test's randomness source.
func newDeterministicRand(seed int64) *mrand.Rand {
	return mrand.New(mrand.NewSource(seed))
}

func TestLocalCountsFig1(t *testing.T) {
	g, err := NewGraph([]Edge{
		{Src: 0, Dst: 1, Time: 5},
		{Src: 1, Dst: 2, Time: 10},
		{Src: 2, Dst: 0, Time: 20},
		{Src: 2, Dst: 3, Time: 25},
		{Src: 1, Dst: 2, Time: 30},
		{Src: 0, Dst: 1, Time: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ParseMotif("cycle", 25, "A->B;B->C;C->A")
	counts := LocalCounts(g, m)
	// Exactly one match touching nodes 0, 1, 2 once each; node 3 untouched.
	want := []int64{1, 1, 1, 0}
	for u, w := range want {
		if counts[u] != w {
			t.Errorf("node %d: count %d, want %d", u, counts[u], w)
		}
	}
}

func TestLocalCountsSumConsistency(t *testing.T) {
	g, err := Dataset("em", "", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m := M1(DeltaHour)
	total := Count(g, m)
	counts := LocalCounts(g, m)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	// Each M1 occurrence touches exactly 3 distinct nodes.
	if sum != 3*total {
		t.Fatalf("local counts sum %d, want 3×%d", sum, total)
	}
}

// TestProfileCtxBudgetTruncation: a tiny node budget must mark every
// nontrivial motif truncated while keeping counts as exact lower bounds,
// and the unbudgeted profile must stay untruncated.
func TestProfileCtxBudgetTruncation(t *testing.T) {
	g, err := Dataset("em", "", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	motifs := MotifLibrary(DeltaHour)
	full, err := profileCtx(context.Background(), g, motifs, 2, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range full {
		if mc.Truncated {
			t.Fatalf("%s: unbudgeted profile truncated (%v)", mc.Motif.Name, mc.StopReason)
		}
	}

	tiny, err := profileCtx(context.Background(), g, motifs, 2, Budget{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	truncatedAny := false
	for i, mc := range tiny {
		if mc.Truncated {
			truncatedAny = true
			if mc.StopReason != StopNodeBudget {
				t.Errorf("%s: stop reason %v, want node budget", mc.Motif.Name, mc.StopReason)
			}
		}
		if mc.Count > full[i].Count {
			t.Errorf("%s: truncated count %d exceeds full count %d", mc.Motif.Name, mc.Count, full[i].Count)
		}
	}
	if !truncatedAny {
		t.Fatal("MaxNodes=1 truncated nothing")
	}

	// A dead context truncates every motif without erroring.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead, err := profileCtx(ctx, g, motifs, 2, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range dead {
		if !mc.Truncated || mc.StopReason != StopCanceled {
			t.Errorf("%s: dead-context run not marked canceled: %+v", mc.Motif.Name, mc)
		}
	}
}

// TestProfileSharedBudget pins the co-mined profile's budget model: ONE
// budget governs the whole fingerprint. The motif set spans two δ-groups;
// a MaxNodes cap small enough to die inside the first group must leave the
// second group truncated too (it never gets a fresh budget of its own —
// the pre-co-mining profiler would have completed it).
func TestProfileSharedBudget(t *testing.T) {
	g, err := Dataset("em", "", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	motifs := []*Motif{M1(DeltaHour), M2(DeltaHour), M1(DeltaHour / 2)}
	full, err := profileCtx(context.Background(), g, motifs, 2, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mc := range full {
		if mc.Count == 0 {
			t.Skip("dataset slice too sparse to exercise the budget split")
		}
	}

	capped, err := profileCtx(context.Background(), g, motifs, 2, Budget{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, mc := range capped {
		if !mc.Truncated {
			t.Errorf("%s (δ=%d): completed under a shared MaxNodes=1 budget — budget looks per-motif",
				mc.Motif.Name, mc.Motif.Delta)
		}
		if mc.StopReason != StopNodeBudget {
			t.Errorf("%s: stop reason %v, want node budget", mc.Motif.Name, mc.StopReason)
		}
		if mc.Count > full[i].Count {
			t.Errorf("%s: capped count %d exceeds full %d", mc.Motif.Name, mc.Count, full[i].Count)
		}
	}
	// The second δ-group never ran: its count must be zero, not a fresh
	// full mine.
	if got := capped[2].Count; got == full[2].Count && got > 0 {
		t.Errorf("second δ-group counted %d matches after the shared budget died — it ran on its own budget", got)
	}
}

// TestCountManyMatchesSingleRuns: the public batch API returns counts
// bit-identical to independent single-motif runs, with the co-mining
// shape surfaced.
func TestCountManyMatchesSingleRuns(t *testing.T) {
	g, err := Dataset("em", "", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	motifs := EvaluationMotifs(DeltaHour)
	res, err := CountManyCtx(context.Background(), g, motifs, 2, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerMotif) != len(motifs) {
		t.Fatalf("PerMotif length %d vs %d motifs", len(res.PerMotif), len(motifs))
	}
	for i, pm := range res.PerMotif {
		if want := Count(g, motifs[i]); pm.Matches != want {
			t.Errorf("%s: batch count %d vs direct %d", motifs[i].Name, pm.Matches, want)
		}
		if pm.Truncated {
			t.Errorf("%s: unbudgeted batch truncated", motifs[i].Name)
		}
	}
	if res.Groups != 1 {
		t.Errorf("M1-M4 share δ: got %d groups, want 1", res.Groups)
	}
	if res.SharedExpansions == 0 {
		t.Error("co-mined M1-M4 reported zero shared expansions")
	}
}

// profileCtx is the bounded profile: one budgeted motif-set Run read as
// a fingerprint.
func profileCtx(ctx context.Context, g *Graph, motifs []*Motif, workers int, b Budget) ([]MotifCount, error) {
	res, err := Run(ctx, g, Query{Motifs: motifs, Workers: workers, Budget: b})
	return ProfileOf(g, res), err
}
