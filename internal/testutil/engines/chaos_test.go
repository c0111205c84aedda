package engines

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mint/internal/faultinject"
	"mint/internal/mackey"
	"mint/internal/mint"
	"mint/internal/oracle"
	"mint/internal/runctl"
	"mint/internal/task"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// chaosOutcome is one engine's result under fault injection, normalized
// across the engines' different return shapes.
type chaosOutcome struct {
	matches   int64
	truncated bool
	reason    runctl.Reason
	err       error
	poisoned  int
}

// chaosEngine is one engine wired for fault injection: it runs under a
// fresh controller carrying the plan, so every hook site in its path is
// live.
type chaosEngine struct {
	name string
	run  func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome
}

func chaosCtl(plan *faultinject.Plan) *runctl.Controller {
	ctl := runctl.New(context.Background(), runctl.Budget{})
	ctl.SetFaultPlan(plan)
	return ctl
}

// chaosEngines spans every layer that carries injection hooks: the
// sequential reference miner (per-root site), the partitioned parallel
// miner (per-chunk site), the supervised miner (per-chunk with retry and
// quarantine), both task runtimes (per-root and per-queue-task sites),
// and the cycle-level simulator (per-poll site).
func chaosEngines() []chaosEngine {
	return []chaosEngine{
		{"mackey/sequential", func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome {
			res := mackey.Mine(g, m, mackey.Options{Ctl: chaosCtl(plan)})
			return chaosOutcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason}
		}},
		{"mackey/parallel-4", func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome {
			res, err := mackey.MineParallelCtx(context.Background(), g, m,
				mackey.Options{Workers: 4, Ctl: chaosCtl(plan)}, runctl.Budget{})
			return chaosOutcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason, err: err}
		}},
		{"mackey/supervised-4", func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome {
			sup := mackey.Supervise(mackey.SupervisorOptions{MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond})
			res, err := mackey.MineParallelCtx(context.Background(), g, m,
				mackey.Options{Workers: 4, Ctl: chaosCtl(plan), Supervision: sup}, runctl.Budget{})
			return chaosOutcome{matches: res.Matches, truncated: res.Truncated,
				reason: res.StopReason, err: err, poisoned: len(sup.Result().Poisoned)}
		}},
		{"task/run-4", func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome {
			res, err := task.RunCtl(g, m, 4, chaosCtl(plan))
			return chaosOutcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason, err: err}
		}},
		{"task/queue-4", func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome {
			res, err := task.RunQueueCtl(g, m, 4, 8, chaosCtl(plan))
			return chaosOutcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason, err: err}
		}},
		{"mint/sim", func(g *temporal.Graph, m *temporal.Motif, plan *faultinject.Plan) chaosOutcome {
			cfg := mint.DefaultConfig()
			cfg.PEs = 8
			res, err := mint.SimulateCtl(g, m, cfg, chaosCtl(plan))
			return chaosOutcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason, err: err}
		}},
	}
}

// TestChaosDifferentialSoundness is the chaos soundness contract from the
// fault-tolerance design: under a seeded rate-based fault plan, every
// engine must either produce the exact count or degrade *loudly* — an
// error, or Truncated with a stop reason and a partial count that never
// exceeds the oracle. A silently wrong count (untruncated, errorless, yet
// != oracle) fails the test. The CI chaos job runs this under -race with
// a fixed seed set, so the recover/stop paths themselves are also proven
// race-free.
func TestChaosDifferentialSoundness(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 160, 4000)
	motifs := temporal.EvaluationMotifs(600)[:2]
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}

	totalFired := int64(0)
	for _, seed := range seeds {
		// Mixed-kind plan: crashes, stalls, clean errors, and dropped work,
		// each rare enough that some runs complete exactly. Delays are kept
		// short — they model stalls, not hangs, and must not slow the test.
		plan := faultinject.New(seed, 0.03, 0.02, 0.03, 0.02, 200*time.Microsecond)
		for _, m := range motifs {
			want := oracle.Count(g, m)
			for _, eng := range chaosEngines() {
				out := eng.run(g, m, plan)
				switch {
				case out.err != nil:
					// Loud failure: acceptable. The error must identify the
					// injection, not be some unrelated breakage.
					if !faultinject.IsInjected(out.err) {
						t.Errorf("seed %d %s/%s: non-injected error under chaos: %v",
							seed, eng.name, m.Name, out.err)
					}
				case out.truncated:
					if out.reason == runctl.NotStopped {
						t.Errorf("seed %d %s/%s: truncated without a stop reason",
							seed, eng.name, m.Name)
					}
					if out.matches > want {
						t.Errorf("seed %d %s/%s: truncated count %d exceeds oracle %d",
							seed, eng.name, m.Name, out.matches, want)
					}
				default:
					if out.matches != want {
						t.Errorf("seed %d %s/%s: SILENTLY WRONG count %d, oracle %d (no error, not truncated)",
							seed, eng.name, m.Name, out.matches, want)
					}
				}
			}
		}
		for _, n := range plan.Fired() {
			totalFired += n
		}
	}
	if totalFired == 0 {
		t.Fatal("no faults fired across the whole matrix; the chaos plan rates are too low for this workload")
	}
}

// TestChaosSupervisedRecoversCleanErrors pins the recovery guarantee that
// distinguishes the supervised miner from the rest of the table: under
// error-only injection (no crashes, no drops) with retry headroom, the
// supervised run must converge to the exact count with no truncation —
// retries re-roll the fault decision, so a transient error never costs
// correctness, only attempts.
func TestChaosSupervisedRecoversCleanErrors(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 160, 4000)
	m := temporal.EvaluationMotifs(600)[0]
	want := oracle.Count(g, m)
	for _, seed := range []int64{11, 12, 13} {
		plan := faultinject.New(seed, 0, 0, 0.10, 0, time.Millisecond)
		sup := mackey.Supervise(mackey.SupervisorOptions{MaxAttempts: 6, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond})
		res, err := mackey.MineParallelCtx(context.Background(), g, m,
			mackey.Options{Workers: 4, Ctl: chaosCtl(plan), Supervision: sup}, runctl.Budget{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Truncated || len(sup.Result().Poisoned) > 0 {
			t.Fatalf("seed %d: supervised run truncated (poisoned %d) under error-only faults",
				seed, len(sup.Result().Poisoned))
		}
		if res.Matches != want {
			t.Fatalf("seed %d: supervised count %d, oracle %d", seed, res.Matches, want)
		}
	}
}
