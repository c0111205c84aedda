package mint

import (
	"context"
	"fmt"
	"io"

	"mint/internal/cyclemine"
	"mint/internal/datasets"
	"mint/internal/gpumodel"
	hw "mint/internal/mint"
	"mint/internal/power"
	"mint/internal/presto"
	"mint/internal/task"
	"mint/internal/temporal"
)

// Core data types, re-exported from the temporal substrate.
type (
	// Graph is an immutable temporal graph: a timestamp-sorted edge list
	// plus per-node in/out edge-index lists.
	Graph = temporal.Graph
	// Motif is a δ-temporal motif: a time-ordered directed edge sequence
	// with a duration bound.
	Motif = temporal.Motif
	// MotifEdge is one directed motif edge between motif-local nodes.
	MotifEdge = temporal.MotifEdge
	// Edge is one temporal edge of a graph.
	Edge = temporal.Edge
	// NodeID identifies a graph node.
	NodeID = temporal.NodeID
	// EdgeID indexes a graph's temporal edge list.
	EdgeID = temporal.EdgeID
	// Timestamp is a point in time (dataset-defined unit; the bundled
	// datasets use seconds).
	Timestamp = temporal.Timestamp
)

// DeltaHour is one hour in the seconds convention of the bundled datasets
// — the δ the paper's evaluation uses throughout.
const DeltaHour = temporal.DeltaHour

// NewGraph builds a Graph from an edge multiset (copied, then sorted by
// timestamp).
func NewGraph(edges []Edge) (*Graph, error) { return temporal.NewGraph(edges) }

// LoadSNAP reads a temporal graph in SNAP text format ("src dst time"
// lines) from r.
func LoadSNAP(r io.Reader) (*Graph, error) { return temporal.ReadSNAP(r) }

// NewMotif validates and constructs a motif from an explicit edge list.
func NewMotif(name string, delta Timestamp, edges []MotifEdge) (*Motif, error) {
	return temporal.NewMotif(name, delta, edges)
}

// ParseMotif parses the compact motif syntax, e.g. "A->B; B->C; C->A".
func ParseMotif(name string, delta Timestamp, spec string) (*Motif, error) {
	return temporal.ParseMotif(name, delta, spec)
}

// M1–M4 are the paper's evaluation motifs (Fig 9): the 3-node cycle, the
// 3-node feed-forward triangle, the 4-node cycle, and the 5-node out-star.
func M1(delta Timestamp) *Motif { return temporal.M1(delta) }
func M2(delta Timestamp) *Motif { return temporal.M2(delta) }
func M3(delta Timestamp) *Motif { return temporal.M3(delta) }
func M4(delta Timestamp) *Motif { return temporal.M4(delta) }

// EvaluationMotifs returns M1–M4 at the given δ, in paper order.
func EvaluationMotifs(delta Timestamp) []*Motif { return temporal.EvaluationMotifs(delta) }

// MotifByName resolves a named evaluation motif ("M1".."M4") at δ — the
// lookup serving layers use for motif fields in requests.
func MotifByName(name string, delta Timestamp) (*Motif, error) {
	for _, m := range temporal.EvaluationMotifs(delta) {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("mint: unknown motif %q (want M1..M4)", name)
}

// LoadSNAPFile reads a temporal graph in SNAP text format from a file.
func LoadSNAPFile(path string) (*Graph, error) { return temporal.LoadSNAPFile(path) }

// Count returns the exact number of δ-temporal motif instances of m in g,
// using the chronological edge-driven algorithm of Mackey et al. — the
// algorithm Mint accelerates — on one worker. It is CountParallel with one
// worker.
func Count(g *Graph, m *Motif) int64 {
	return CountParallel(g, m, 1)
}

// CountParallel is Count on a work-stealing worker pool (workers < 1 means
// GOMAXPROCS). Search trees are independent, so the count is exact. It is
// an uncancellable shim over CountParallelCtx (a worker panic, converted
// into an error there, re-panics here).
func CountParallel(g *Graph, m *Motif, workers int) int64 {
	res, err := CountParallelCtx(context.Background(), g, m, workers, Budget{})
	if err != nil {
		panic(err)
	}
	return res.Matches
}

// CountTaskQueue runs the paper's asynchronous task-queue programming
// model (§IV, Fig 5) in software: contexts flow through a bounded queue,
// each processed task enqueueing its child task.
func CountTaskQueue(g *Graph, m *Motif, workers, contexts int) int64 {
	return task.RunQueue(g, m, workers, contexts)
}

// CountCycles counts temporal k-cycles with a pattern-specific miner (a
// 2SCENT-style time-respecting walk, §II-C) — faster than the generic
// engine on this one motif family, identical counts by construction.
func CountCycles(g *Graph, k int, delta Timestamp) (int64, error) {
	st, err := cyclemine.Count(g, k, delta)
	if err != nil {
		return 0, err
	}
	return st.Matches, nil
}

// Enumerate streams every match as its graph-edge index sequence (in motif
// order) to visit. The slice is reused across calls; copy it to retain.
// It is an uncancellable shim over EnumerateCtx.
func Enumerate(g *Graph, m *Motif, visit func(edges []int32)) {
	EnumerateCtx(context.Background(), g, m, Budget{}, visit)
}

// ApproxConfig configures the PRESTO-style sampling estimator.
type ApproxConfig = presto.Config

// DefaultApproxConfig returns a reasonable sampling operating point.
func DefaultApproxConfig() ApproxConfig { return presto.DefaultConfig() }

// EstimateApprox estimates the motif count by uniform temporal-window
// sampling (PRESTO-A), running the exact miner inside each window. The
// estimator is unbiased; accuracy improves with cfg.Windows.
func EstimateApprox(g *Graph, m *Motif, cfg ApproxConfig) (float64, error) {
	res, err := presto.Estimate(g, m, cfg)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// Hardware simulation --------------------------------------------------

// SimConfig configures the cycle-level Mint accelerator simulator.
type SimConfig = hw.Config

// SimResult is a simulation outcome: matches, cycles, modeled seconds,
// memory-system statistics.
type SimResult = hw.Result

// DefaultSimConfig returns the paper's Table II machine: 512 PEs, 4 MB
// banked cache, 8-channel DDR4-3200, 1.6 GHz, search index memoization on.
func DefaultSimConfig() SimConfig { return hw.DefaultConfig() }

// Simulate runs the Mint accelerator simulator. Match counts are exact
// (the simulator drives the same task transitions as Count).
func Simulate(g *Graph, m *Motif, cfg SimConfig) (SimResult, error) {
	return hw.Simulate(g, m, cfg)
}

// GPUConfig configures the SIMT timing model of the GPU baseline.
type GPUConfig = gpumodel.Config

// DefaultGPUConfig models the paper's RTX 2080 Ti.
func DefaultGPUConfig() GPUConfig { return gpumodel.DefaultConfig() }

// SimulateGPU runs the Mackey-on-GPU SIMT timing model.
func SimulateGPU(g *Graph, m *Motif, cfg GPUConfig) (gpumodel.Result, error) {
	return gpumodel.Run(g, m, cfg)
}

// AreaPower returns the 28 nm area/power roll-up (Fig 14) for a Mint
// configuration.
func AreaPower(pes, cacheBanks, cacheKBPerBank int) (power.Breakdown, error) {
	return power.Model(pes, cacheBanks, cacheKBPerBank)
}

// Datasets --------------------------------------------------------------

// DatasetSpec describes one of the paper's six evaluation datasets.
type DatasetSpec = datasets.Spec

// Datasets lists the paper's six datasets with their Table I statistics.
func Datasets() []DatasetSpec { return datasets.Table1() }

// Dataset returns the named dataset ("wiki-talk" or "wt", etc.) as a
// deterministic synthetic graph scaled by scale (0 < scale ≤ 1; 1 is the
// full Table I size). If dir is non-empty and contains <name>.txt in SNAP
// format, the real file is loaded instead.
func Dataset(name, dir string, scale float64) (*Graph, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return nil, err
	}
	return datasets.Load(spec, dir, scale)
}
