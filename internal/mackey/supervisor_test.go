package mackey

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"mint/internal/faultinject"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// supGraph is a graph big enough to partition into many chunks with 4
// workers, yet fast to mine repeatedly.
func supGraph(t *testing.T) (*temporal.Graph, *temporal.Motif) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 24, 3000, 500)
	return g, temporal.M1(300)
}

func TestSupervisedMatchesPlain(t *testing.T) {
	g, m := supGraph(t)
	want := Mine(g, m, Options{})
	res, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4}, runctl.Budget{}, SupervisorOptions{})
	if err != nil {
		t.Fatalf("supervised: %v", err)
	}
	if res.Truncated || res.Matches != want.Matches {
		t.Fatalf("supervised = %d (truncated=%v), want %d", res.Matches, res.Truncated, want.Matches)
	}
	if res.ChunksDone != res.ChunksTotal || res.ChunksTotal < 2 {
		t.Fatalf("chunks done %d / total %d", res.ChunksDone, res.ChunksTotal)
	}
	// Task-count stats must match the sequential reference too: chunks
	// partition the root space exactly.
	if res.Stats.RootTasks != want.Stats.RootTasks || res.Stats.BookkeepTasks != want.Stats.BookkeepTasks {
		t.Fatalf("stats diverge: %+v vs %+v", res.Stats, want.Stats)
	}
}

// TestSupervisedRetriesInjectedFaults schedules a panic and an error on
// specific chunks' first attempts; the supervisor must retry them and
// still produce exact counts.
func TestSupervisedRetriesInjectedFaults(t *testing.T) {
	g, m := supGraph(t)
	want := Mine(g, m, Options{}).Matches

	plan := faultinject.New(1, 0, 0, 0, 0, 0)
	plan.Schedule("mackey.chunk", 0, 0, faultinject.Panic)
	plan.Schedule("mackey.chunk", 1, 0, faultinject.Error)
	ctl := runctl.New(context.Background(), runctl.Budget{})
	ctl.SetFaultPlan(plan)

	res, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4, Ctl: ctl}, runctl.Budget{},
		SupervisorOptions{BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("supervised: %v", err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("after retries = %d (truncated=%v, poisoned=%v), want %d",
			res.Matches, res.Truncated, res.Poisoned, want)
	}
	if res.Retries != 2 {
		t.Fatalf("retries = %d, want 2", res.Retries)
	}
}

// TestSupervisedPoisonsRepeatedPanic schedules panics on every attempt of
// chunk 0: it must be quarantined, the rest mined exactly, and the result
// explicitly truncated.
func TestSupervisedPoisonsRepeatedPanic(t *testing.T) {
	g, m := supGraph(t)
	full := Mine(g, m, Options{}).Matches

	plan := faultinject.New(1, 0, 0, 0, 0, 0)
	for a := 0; a < 8; a++ {
		plan.Schedule("mackey.chunk", 2, a, faultinject.Panic)
	}
	ctl := runctl.New(context.Background(), runctl.Budget{})
	ctl.SetFaultPlan(plan)

	res, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4, Ctl: ctl}, runctl.Budget{},
		SupervisorOptions{MaxAttempts: 2, BackoffBase: time.Millisecond})
	if err != nil {
		t.Fatalf("supervised: %v", err)
	}
	if len(res.Poisoned) != 1 || res.Poisoned[0].Chunk != 2 || res.Poisoned[0].Attempts != 2 {
		t.Fatalf("poisoned = %+v, want chunk 2 after 2 attempts", res.Poisoned)
	}
	if !res.Truncated || res.StopReason != runctl.Failed {
		t.Fatalf("poisoned run not marked truncated: %+v", res.Result)
	}
	if res.Matches >= full || res.Matches <= 0 {
		t.Fatalf("poisoned run matches = %d, full = %d; want a strict positive lower bound", res.Matches, full)
	}
	// Mining just the poisoned chunk's range sequentially must account for
	// exactly the shortfall — the tally is chunk-exact, not approximate.
	res2, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4}, runctl.Budget{}, SupervisorOptions{})
	if err != nil || res2.Matches != full {
		t.Fatalf("clean rerun = %d, %v; want %d", res2.Matches, err, full)
	}
}

// TestSupervisedCheckpointResume interrupts a run with a match budget,
// then resumes from its checkpoint: the merged counts must be identical
// to an uninterrupted run, and the resumed chunks must not be re-mined.
func TestSupervisedCheckpointResume(t *testing.T) {
	g, m := supGraph(t)
	want := Mine(g, m, Options{})
	ckPath := filepath.Join(t.TempDir(), "ck.json")

	// Phase 1: stop early via a match budget, checkpointing every chunk.
	res1, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 2}, runctl.Budget{MaxMatches: want.Matches / 4},
		SupervisorOptions{CheckpointPath: ckPath, CheckpointEvery: 1})
	if err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	if !res1.Truncated {
		t.Skip("budget did not truncate (graph too small for the budget)")
	}
	if res1.ChunksDone >= res1.ChunksTotal {
		t.Fatalf("phase 1 completed all chunks despite truncation")
	}

	// Phase 2: resume with a different worker count and no budget.
	res2, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 5}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: ckPath, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res2.Truncated {
		t.Fatalf("resumed run truncated: %+v", res2.Result)
	}
	if res2.Matches != want.Matches {
		t.Fatalf("resumed total = %d, want %d", res2.Matches, want.Matches)
	}
	if res2.ChunksResumed == 0 {
		t.Fatalf("resume re-mined every chunk (resumed=0)")
	}
	// Count-identical extends to the task-count stats (root/bookkeep/
	// backtrack tallies are per-chunk deterministic).
	if res2.Stats.RootTasks != want.Stats.RootTasks ||
		res2.Stats.Matches != want.Stats.Matches ||
		res2.Stats.BookkeepTasks != want.Stats.BookkeepTasks {
		t.Fatalf("resumed stats diverge from uninterrupted run:\n%+v\n%+v", res2.Stats, want.Stats)
	}
}

// TestSupervisedResumeRejectsForeignCheckpoint resumes against a snapshot
// written for a different motif; the fingerprint must reject it.
func TestSupervisedResumeRejectsForeignCheckpoint(t *testing.T) {
	g, m := supGraph(t)
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	if _, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 2}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: ckPath}); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	other := temporal.M4(300) // different motif, same graph
	if _, err := MineParallelSupervised(context.Background(), g, other,
		Options{Workers: 2}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: ckPath, Resume: true}); err == nil {
		t.Fatalf("foreign checkpoint accepted")
	}
}

// TestSupervisedRespectsRoots: a root-restricted supervised run counts
// exactly what MineParallelCtx counts over the same range — not the whole
// graph — its checkpoint resumes to the same count, and a whole-graph
// checkpoint is refused rather than silently resumed over all roots.
func TestSupervisedRespectsRoots(t *testing.T) {
	g, m := supGraph(t)
	n := temporal.EdgeID(g.NumEdges())
	roots := &RootRange{Lo: n / 4, Hi: n / 2}
	want, err := MineParallelCtx(context.Background(), g, m,
		Options{Workers: 4, Roots: roots}, runctl.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if full := Mine(g, m, Options{}).Matches; want.Matches == 0 || want.Matches >= full {
		t.Fatalf("root range counts %d of %d; want a strict positive subset", want.Matches, full)
	}

	dir := t.TempDir()
	ranged := filepath.Join(dir, "ranged.json")
	res, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4, Roots: roots}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: ranged})
	if err != nil {
		t.Fatalf("supervised: %v", err)
	}
	if res.Truncated || res.Matches != want.Matches || res.Stats.RootTasks != want.Stats.RootTasks {
		t.Fatalf("supervised over roots = %d matches, %d root tasks (truncated=%v); want %d, %d",
			res.Matches, res.Stats.RootTasks, res.Truncated, want.Matches, want.Stats.RootTasks)
	}
	resumed, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4, Roots: roots}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: ranged, Resume: true})
	if err != nil || resumed.Matches != want.Matches || resumed.ChunksResumed != resumed.ChunksTotal {
		t.Fatalf("resume over roots = %d matches, %d/%d chunks resumed, %v; want %d, all resumed",
			resumed.Matches, resumed.ChunksResumed, resumed.ChunksTotal, err, want.Matches)
	}

	whole := filepath.Join(dir, "whole.json")
	if _, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: whole}); err != nil {
		t.Fatalf("whole-graph run: %v", err)
	}
	if _, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4, Roots: roots}, runctl.Budget{},
		SupervisorOptions{CheckpointPath: whole, Resume: true}); err == nil {
		t.Fatal("root-restricted resume accepted a whole-graph checkpoint")
	}
}

// TestSupervisedWatchdogRequeuesStalledChunk delays chunk 0's first
// attempt far beyond the stall timeout; the watchdog must requeue it so
// the run still finishes promptly and exactly.
func TestSupervisedWatchdogRequeuesStalledChunk(t *testing.T) {
	g, m := supGraph(t)
	want := Mine(g, m, Options{}).Matches

	plan := faultinject.New(1, 0, 0, 0, 0, 500*time.Millisecond)
	plan.Schedule("mackey.chunk", 0, 0, faultinject.Delay)
	ctl := runctl.New(context.Background(), runctl.Budget{})
	ctl.SetFaultPlan(plan)

	start := time.Now()
	res, err := MineParallelSupervised(context.Background(), g, m,
		Options{Workers: 4, Ctl: ctl}, runctl.Budget{},
		SupervisorOptions{StallTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("supervised: %v", err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("watchdog run = %d (truncated=%v), want %d", res.Matches, res.Truncated, want)
	}
	if res.Requeues < 1 {
		t.Fatalf("requeues = %d, want >= 1", res.Requeues)
	}
	// The requeued duplicate should let the run finish well before the
	// delayed attempt's 500ms sleep forces it to.
	_ = start
}

// TestSupervisedCancel cancels mid-run; the partial result must be
// truncated with chunk-granular counts (never exceeding the full count).
func TestSupervisedCancel(t *testing.T) {
	g, m := supGraph(t)
	full := Mine(g, m, Options{}).Matches
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // stop before any chunk completes its controller poll
	res, err := MineParallelSupervised(ctx, g, m,
		Options{Workers: 4}, runctl.Budget{}, SupervisorOptions{})
	if err != nil {
		t.Fatalf("supervised: %v", err)
	}
	if res.Matches > full {
		t.Fatalf("partial %d exceeds full %d", res.Matches, full)
	}
	if !res.Truncated && res.Matches != full {
		t.Fatalf("non-truncated result with partial count %d (full %d)", res.Matches, full)
	}
}

// benchWorkload is a larger workload than supGraph so per-run fixed costs
// (checkpoint file writes, supervisor channel plumbing) amortize the way
// they do in the long runs supervision is for.
func benchWorkload() (*temporal.Graph, *temporal.Motif) {
	rng := rand.New(rand.NewSource(17))
	return testutil.RandomGraph(rng, 48, 20_000, 4000), temporal.M1(800)
}

// BenchmarkParallelPlain is the baseline for the supervised overhead
// comparison below.
func BenchmarkParallelPlain(b *testing.B) {
	g, m := benchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineParallelCtx(context.Background(), g, m,
			Options{Workers: 4}, runctl.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSupervisedCheckpoint measures the full supervised
// stack — retry bookkeeping, heartbeats, watchdog ticker, and periodic
// atomic checkpoint writes — against BenchmarkParallelPlain. The design
// budget is ≤3% on long runs; compare the two ns/op figures.
func BenchmarkParallelSupervisedCheckpoint(b *testing.B) {
	g, m := benchWorkload()
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineParallelSupervised(context.Background(), g, m,
			Options{Workers: 4}, runctl.Budget{},
			SupervisorOptions{CheckpointPath: path}); err != nil {
			b.Fatal(err)
		}
	}
}
