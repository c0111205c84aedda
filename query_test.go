package mint

import (
	"context"
	"errors"
	"testing"
)

// TestRunRejectsInvalidQueries: Run refuses every field combination
// that does not describe one run, before mining anything.
func TestRunRejectsInvalidQueries(t *testing.T) {
	g, m := denseTestGraph()
	set := []*Motif{m, M2(400)}
	visit := func([]int32) {}
	sup := &SupervisorConfig{}
	fb := &ApproxConfig{}
	roots := &RootWindow{Start: 0, End: 100}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"no motif", Query{}},
		{"motif and motifs", Query{Motif: m, Motifs: set}},
		{"enumerate a set", Query{Motifs: set, Visit: visit}},
		{"fallback for a set", Query{Motifs: set, Fallback: fb}},
		{"supervised set", Query{Motifs: set, Supervisor: sup}},
		{"supervised roots", Query{Motif: m, Supervisor: sup, Roots: roots}},
		{"supervised enumerate", Query{Motif: m, Supervisor: sup, Visit: visit}},
		{"supervised fallback", Query{Motif: m, Supervisor: sup, Fallback: fb}},
		{"enumerate with fallback", Query{Motif: m, Visit: visit, Fallback: fb}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), g, tc.q)
			if !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("Run error = %v, want ErrInvalidQuery", err)
			}
			if res.Matches != 0 || res.Stats.NodesExpanded != 0 {
				t.Fatalf("rejected query still mined: %+v", res.MineResult)
			}
		})
	}
	for _, q := range []Query{
		{Motif: m},
		{Motifs: set, Roots: roots},
		{Motif: m, Visit: visit, Roots: roots},
		{Motif: m, Fallback: fb, Roots: roots},
		{Motif: m, Supervisor: sup},
	} {
		if err := q.Validate(); err != nil {
			t.Errorf("valid query %+v rejected: %v", q, err)
		}
	}
}

// TestRunRoutesStarsCountStaysOnExecutor: Run answers M4 with the star
// kernel, alone and inside a set, while CountParallelCtx — the
// reference serving benchmarks check answers against — stays on the
// trie executor; all three agree on the count. A node budget keeps Run
// on the executor too.
func TestRunRoutesStarsCountStaysOnExecutor(t *testing.T) {
	g, _ := denseTestGraph()
	m4 := M4(60)
	ctx := context.Background()
	run, err := Run(ctx, g, Query{Motif: m4, Workers: 2})
	if err != nil || run.Engine != EngineExact {
		t.Fatalf("Run(M4) = %+v, %v", run, err)
	}
	if len(run.Kernels) != 1 || run.Kernels[0] != m4.Name || run.Stats.NodesExpanded != 0 {
		t.Fatalf("Run(M4) took kernels %v with %d nodes expanded, want the M4 kernel and none",
			run.Kernels, run.Stats.NodesExpanded)
	}
	ref, err := CountParallelCtx(ctx, g, m4, 2, Budget{})
	if err != nil || ref.Stats.NodesExpanded == 0 {
		t.Fatalf("CountParallelCtx(M4) expanded %d nodes (%v), want the trie executor", ref.Stats.NodesExpanded, err)
	}
	if run.Matches != ref.Matches || run.Matches == 0 {
		t.Fatalf("Run(M4) = %d, CountParallelCtx = %d", run.Matches, ref.Matches)
	}
	set, err := Run(ctx, g, Query{Motifs: []*Motif{M1(60), m4}, Workers: 2})
	if err != nil || len(set.Kernels) != 1 || set.Batch.PerMotif[1].Matches != ref.Matches || !set.Batch.PerMotif[1].Kernel {
		t.Fatalf("set run: kernels %v, M4 row %+v (%v), want the kernel and %d", set.Kernels, set.Batch.PerMotif[1], err, ref.Matches)
	}
	budgeted, err := Run(ctx, g, Query{Motif: m4, Budget: Budget{MaxNodes: 1 << 40}})
	if err != nil || budgeted.Kernels != nil || budgeted.Stats.NodesExpanded == 0 || budgeted.Matches != ref.Matches {
		t.Fatalf("node-budgeted Run(M4): kernels %v, %d nodes, %d matches (%v)",
			budgeted.Kernels, budgeted.Stats.NodesExpanded, budgeted.Matches, err)
	}
}
