package mint

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mint/internal/testutil"
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
		{Motifs: set, Supervisor: sup},
		{Motif: m, Supervisor: sup, Roots: roots},
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

// TestRunSupervisedSetKillAndResume: a supervised M1–M4 set, whose M4
// a supervised run keeps on the star kernel under a match budget, is
// killed by that budget and resumed from its checkpoint — one section
// per scheduler run — to exactly the unsupervised per-motif counts.
func TestRunSupervisedSetKillAndResume(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(31)), 24, 3000, 6000)
	set := EvaluationMotifs(400)
	ctx := context.Background()
	want, err := Run(ctx, g, Query{Motifs: set, Workers: 4})
	if err != nil || want.Truncated || want.Batch.PerMotif[3].Matches == 0 {
		t.Fatalf("unsupervised set: %v (truncated %v, rows %+v)", err, want.Truncated, want.Batch.PerMotif)
	}
	path := filepath.Join(t.TempDir(), "set.ckpt")
	part, err := Run(ctx, g, Query{Motifs: set, Workers: 2, Budget: Budget{MaxMatches: want.Matches / 3},
		Supervisor: &SupervisorConfig{CheckpointPath: path, CheckpointEvery: 1, CheckpointInterval: -1}})
	if err != nil || !part.Truncated {
		t.Fatalf("budgeted supervised set: %v (truncated %v)", err, part.Truncated)
	}
	if len(part.Kernels) != 1 || part.Kernels[0] != set[3].Name {
		t.Fatalf("budgeted supervised set routed kernels %v, want [%s]", part.Kernels, set[3].Name)
	}
	resumed, err := Run(ctx, g, Query{Motifs: set, Workers: 4, Supervisor: &SupervisorConfig{CheckpointPath: path, Resume: true}})
	if err != nil || resumed.Truncated {
		t.Fatalf("resumed set: %v (truncated %v)", err, resumed.Truncated)
	}
	for i, pm := range resumed.Batch.PerMotif {
		if w := want.Batch.PerMotif[i]; pm.Matches != w.Matches || pm.Truncated || pm.Kernel != w.Kernel {
			t.Errorf("%s: resumed %d (kernel %v), unsupervised %d (kernel %v)", pm.Motif.Name, pm.Matches, pm.Kernel, w.Matches, w.Kernel)
		}
	}
	if sup := resumed.Supervised; sup.ChunksResumed == 0 || sup.ChunksDone != sup.ChunksTotal {
		t.Fatalf("resumed ledger %+v: want some chunks resumed and every chunk done", sup)
	}
	t.Logf("killed at %d of %d matches; resumed %d of %d chunks", part.Matches, want.Matches,
		resumed.Supervised.ChunksResumed, resumed.Supervised.ChunksTotal)
}

// TestRunRefusesParentCheckpoint: testdata/checkpoint_v1.json is a
// budget-killed supervised M1 run's checkpoint in the previous,
// single-run format (schema mint.checkpoint/v1). Resuming it — as that
// motif or as the M1–M4 set — must fail loudly rather than mine
// anything, and so must resuming the set from a current single-motif
// checkpoint, whose one section was written for another run.
func TestRunRefusesParentCheckpoint(t *testing.T) {
	g, m := denseTestGraph()
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "m1.ckpt")
	if _, err := Run(context.Background(), g, Query{Motif: m, Workers: 2, Budget: Budget{MaxMatches: 1000},
		Supervisor: &SupervisorConfig{CheckpointPath: single}}); err != nil {
		t.Fatal(err)
	}
	set := EvaluationMotifs(400)
	for _, tc := range []struct {
		name, ckpt, want string
		q                Query
	}{
		{"v1 motif", "", "schema", Query{Motif: m}},
		{"v1 set", "", "schema", Query{Motifs: set}},
		{"single-motif checkpoint for a set", single, "another run", Query{Motifs: set}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.ckpt
			if path == "" {
				path = filepath.Join(t.TempDir(), "v1.ckpt")
				if err := os.WriteFile(path, v1, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			q := tc.q
			q.Workers, q.Supervisor = 2, &SupervisorConfig{CheckpointPath: path, Resume: true}
			res, err := Run(context.Background(), g, q)
			if err == nil || !strings.Contains(err.Error(), tc.want) || res.Matches != 0 || !res.Truncated {
				t.Fatalf("resume: %d matches (truncated %v), err %v; want a %q error and no mining", res.Matches, res.Truncated, err, tc.want)
			}
			for _, pm := range res.Batch.PerMotif {
				if !pm.Truncated || pm.Matches != 0 {
					t.Errorf("%s: %d matches (truncated %v); want a truncated empty row", pm.Motif.Name, pm.Matches, pm.Truncated)
				}
			}
		})
	}
}

// TestRunSupervisedCheckpointWriteFailure: a checkpoint that cannot be
// written is the error of a truncated supervised run, which still
// returns its partial result, and no error of an exact one.
func TestRunSupervisedCheckpointWriteFailure(t *testing.T) {
	g, m := denseTestGraph()
	want := Count(g, m)
	path := filepath.Join(t.TempDir(), "missing", "run.ckpt")
	ctx := context.Background()
	cut, err := Run(ctx, g, Query{Motif: m, Workers: 2, Budget: Budget{MaxMatches: want / 3}, Supervisor: &SupervisorConfig{CheckpointPath: path}})
	if err == nil || !cut.Truncated || cut.Matches > want {
		t.Fatalf("truncated run with an unwritable checkpoint: %d matches (truncated %v), err %v; want a partial result and an error",
			cut.Matches, cut.Truncated, err)
	}
	exact, err := Run(ctx, g, Query{Motif: m, Workers: 2, Supervisor: &SupervisorConfig{CheckpointPath: path}})
	if err != nil || exact.Truncated || exact.Matches != want {
		t.Fatalf("exact run with an unwritable checkpoint: %d matches (truncated %v), err %v; want %d", exact.Matches, exact.Truncated, err, want)
	}
}
