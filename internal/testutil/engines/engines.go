package engines

import (
	"context"
	"fmt"
	"math"

	"mint"
	"mint/internal/comine"
	"mint/internal/mackey"
	mintsim "mint/internal/mint"
	"mint/internal/runctl"
	"mint/internal/task"
	"mint/internal/temporal"
)

// Engine is one named motif-counting implementation under differential
// test. Every engine in this repository — the recursive reference miner,
// the iterative Algorithm 1 port, the memoized and parallel variants, the
// task-centric runtimes, and the Mint simulator's functional layer — must
// produce the exact same count for the same (graph, motif) input; the
// differential harness drives them all from one table and diffs the
// results against the brute-force oracle.
//
// Every production shape of mint.Query sits in the table too —
// enumeration, the supervised miner, the fallback ladder, a one-motif
// batch, a root window split in two, and the default single-motif run
// that answers stars with a closed-form kernel (whole at 1/4/8 workers
// and split in three root windows) — so a request path that
// diverges from the engines it wraps is caught by construction, not by
// luck.
type Engine struct {
	// Name identifies the engine in test output, e.g. "mackey/parallel-4".
	Name string
	// Count returns the exact number of motif instances. Engines without a
	// failure mode return a nil error unconditionally.
	Count func(g *temporal.Graph, m *temporal.Motif) (int64, error)
}

// Engines returns the full engine table. The list deliberately spans every
// axis of the engines: the sequential trie-walking miner, the
// window-cached iterative miner, memoized runs (the memo table replaces
// the window cache), the time-partitioned parallel miner at 1/4/8
// workers counting leaves in bulk and at 4 visiting every match, the
// co-miner on one-motif plans, the synchronous and queue-mediated task
// runtimes (pooled contexts, worker-local caches), the cycle-level
// simulator's functional counts, and the root package's Query shapes.
func Engines() []Engine {
	engines := []Engine{
		{Name: "mackey/reference", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return mackey.Mine(g, m, mackey.Options{}).Matches, nil
		}},
		{Name: "mackey/algorithm1", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return mackey.MineAlgorithm1(g, m, mackey.Options{}).Matches, nil
		}},
		{Name: "mint/enumerate", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			var visits int64
			_, err := mint.Run(context.Background(), g, mint.Query{Motif: m, Visit: func([]int32) { visits++ }})
			return visits, err
		}},
		{Name: "mint/supervised-4", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return exact(mint.Run(context.Background(), g, mint.Query{Motif: m, Workers: 4, Supervisor: &mint.SupervisorConfig{}}))
		}},
		{Name: "mint/fallback", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return exact(mint.Run(context.Background(), g, mint.Query{Motif: m, Fallback: &mint.ApproxConfig{}}))
		}},
		{Name: "mint/batch-solo", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return exact(mint.Run(context.Background(), g, mint.Query{Motifs: []*temporal.Motif{m}}))
		}},
		{Name: "mint/roots-split", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			// Two root windows split at the median edge time partition
			// the instances: their counts must sum to the whole.
			var mid temporal.Timestamp
			if n := g.NumEdges(); n > 0 {
				mid = g.Edges[n/2].Time
			}
			var sum int64
			for _, w := range []mint.RootWindow{{Start: math.MinInt64, End: mid}, {Start: mid, End: math.MaxInt64}} {
				n, err := exact(mint.Run(context.Background(), g, mint.Query{Motif: m, Roots: &w}))
				if err != nil {
					return 0, err
				}
				sum += n
			}
			return sum, nil
		}},
		{Name: "mint/kernel-roots-split", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			// Three root windows at the edge-list terciles, on 4 workers:
			// each window is a binary search into every centre's
			// adjacency, and the parts must sum to the whole.
			cuts := []temporal.Timestamp{math.MinInt64, 0, 0, math.MaxInt64}
			if n := g.NumEdges(); n > 0 {
				cuts[1], cuts[2] = g.Edges[n/3].Time, g.Edges[2*n/3].Time
			}
			var sum int64
			for i := 0; i+1 < len(cuts); i++ {
				w := mint.RootWindow{Start: cuts[i], End: cuts[i+1]}
				n, err := kernelCount(g, m, mint.Query{Motif: m, Workers: 4, Roots: &w})
				if err != nil {
					return 0, err
				}
				sum += n
			}
			return sum, nil
		}},
		{Name: "mackey/memo", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return mackey.MineMemo(g, m, mackey.Options{}).Matches, nil
		}},
		{Name: "task/queue", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			res, err := task.RunQueueCtl(g, m, 4, 8, nil)
			return res.Matches, err
		}},
		{Name: "mint/sim", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			cfg := mintsim.DefaultConfig()
			cfg.PEs = 8 // small array keeps the cycle-level run fast
			res, err := mintsim.Simulate(g, m, cfg)
			return res.Matches, err
		}},
	}
	for _, workers := range []int{1, 4, 8} {
		engines = append(engines,
			Engine{Name: fmt.Sprintf("mint/kernel-%d", workers), Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
				return kernelCount(g, m, mint.Query{Motif: m, Workers: workers})
			}},
			Engine{Name: fmt.Sprintf("mackey/parallel-%d", workers), Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
				return mackey.MineParallel(g, m, mackey.Options{Workers: workers}).Matches, nil
			}},
			Engine{Name: fmt.Sprintf("task/run-%d", workers), Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
				res, err := task.RunCtl(g, m, workers, nil)
				return res.Matches, err
			}},
		)
	}
	engines = append(engines, Engine{Name: "mackey/parallel-memo-8", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
		return mackey.MineParallelMemo(g, m, mackey.Options{Workers: 8}).Matches, nil
	}},
		// A probe makes every leaf match a visit: the per-match path that
		// counting runs replace with one charge per leaf scan.
		Engine{Name: "mackey/parallel-visit-4", Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
			return mackey.MineParallel(g, m, mackey.Options{Workers: 4, Probe: mackey.NopProbe{}}).Matches, nil
		}})
	// The co-miner as a single-motif engine: a one-motif plan exercises
	// planning plus the canonical one-path trie walked by the mackey
	// worker, end to end. Motif SETS get their own differential matrix
	// (comine_test.go) because the Engine signature is per-motif.
	for _, workers := range []int{1, 4} {
		engines = append(engines, Engine{Name: fmt.Sprintf("comine/solo-%d", workers),
			Count: func(g *temporal.Graph, m *temporal.Motif) (int64, error) {
				plan, err := comine.PlanSet([]*temporal.Motif{m})
				if err != nil {
					return 0, err
				}
				res, err := comine.MineCtx(context.Background(), g, plan,
					comine.Options{Workers: workers}, runctl.Budget{})
				if err != nil {
					return 0, err
				}
				return res.PerMotif[0].Matches, nil
			}})
	}
	return engines
}

// kernelCount runs q, whose Motif is m, and reads it as an exact count
// that a star must have taken from its closed-form kernel: a star the
// executor answered (or a non-star a kernel answered) is an error.
func kernelCount(g *temporal.Graph, m *temporal.Motif, q mint.Query) (int64, error) {
	res, err := mint.Run(context.Background(), g, q)
	_, star := mackey.StarOf(m)
	if err == nil && star != (len(res.Kernels) == 1) {
		err = fmt.Errorf("star %v but kernels %v", star, res.Kernels)
	}
	if err != nil {
		return 0, err
	}
	return exact(res, nil)
}

// exact reads an unbudgeted Run as an exact count: anything but the
// exact engine answering is an error.
func exact(res mint.Result, err error) (int64, error) {
	if err == nil && res.Engine != mint.EngineExact {
		err = fmt.Errorf("unbudgeted run answered by engine %q (%v), want %q", res.Engine, res.StopReason, mint.EngineExact)
	}
	return res.Matches, err
}
