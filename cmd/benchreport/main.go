// Command benchreport measures hot-path performance properties of the
// sequential miner and writes them as machine-readable JSON.
//
// Default mode (observability overhead): for each evaluation motif M1–M4
// it benchmarks mackey.Mine on the same synthetic graph three times —
// registry detached, registry attached, and registry plus trace-tagged
// span recording (the serving layer's per-request configuration) — and
// records ns/op for all plus the on/off and trace/off ratios. The miners
// fold their private Stats into the registry once per run, so the ratios
// should sit within noise of 1.0; TestObsOverheadGuard enforces <3%
// under -bench for both configurations, and the committed BENCH_obs.json
// is the reference the guard's budget was set against.
//
// Hot-path mode (-hotpath): benchmarks the production executor
// (mackey.Mine: the pooled, window-cached trie worker every count, batch
// and stream fold runs on) against MineAlgorithm1, the paper's Algorithm 1
// kept as the fixed reference, for M1–M4 on a seeded sample graph from
// the Table I dataset generator, and writes BENCH_hotpath.json with
// ns/op, B/op, allocs per run (testing.AllocsPerRun after a warm-up) and
// matches for both sides plus per-motif speedups. The two sides run in
// hotpathRounds interleaved rounds, and a speedup is the median of the
// per-round ratios, so a noisy neighbour that slows one round moves both
// sides of that round rather than one side's total. A second, leaf-heavy
// sample guards the executor where most tree nodes are complete matches,
// on the wiki-talk sample the serving benchmark's heavy batch mines
// (scale 0.01, nodes scaled with edges): M4 on the executor, M4 on its
// closed-form star kernel (mackey.MineStarCtx), and the co-mined M1–M4
// set, whose M4 comine.MineCtx routes to the kernel (against four
// Algorithm 1 runs). With -check it instead compares a fresh measurement
// against the committed BENCH_hotpath.json and exits non-zero when any
// motif's or leaf-heavy row's speedup regressed by more than 10% —
// speedup ratios, not absolute ns/op, so the guard is
// machine-independent — when its executor allocates more per run, or
// when its match count differs.
//
// Usage:
//
//	benchreport [-out BENCH_obs.json] [-edges 6000] [-seed 99]
//	benchreport -hotpath [-out BENCH_hotpath.json] [-dataset email-eu] [-scale 0.06]
//	benchreport -hotpath -check [-out BENCH_hotpath.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"

	"mint/internal/comine"
	"mint/internal/datasets"
	"mint/internal/mackey"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// benchRow is one motif's observability-overhead measurement.
type benchRow struct {
	Motif      string `json:"motif"`
	Matches    int64  `json:"matches"`
	ObsOffNsOp int64  `json:"obs_off_ns_per_op"`
	ObsOnNsOp  int64  `json:"obs_on_ns_per_op"`
	// TraceNsOp measures the serving configuration: registry attached
	// plus a ring tracer recording trace-tagged spans.
	TraceNsOp  int64   `json:"trace_on_ns_per_op"`
	Ratio      float64 `json:"overhead_ratio"`
	TraceRatio float64 `json:"trace_overhead_ratio"`
}

// benchReport is the BENCH_obs.json payload.
type benchReport struct {
	Schema            string     `json:"schema"`
	GeneratedUnix     int64      `json:"generated_unix"`
	GraphNodes        int        `json:"graph_nodes"`
	GraphEdges        int        `json:"graph_edges"`
	Rows              []benchRow `json:"benchmarks"`
	GeomeanRatio      float64    `json:"geomean_overhead_ratio"`
	GeomeanTraceRatio float64    `json:"geomean_trace_overhead_ratio"`
}

// hotpathSchema names the BENCH_hotpath.json layout; -check refuses a
// committed report of any other layout, whose ratios measure something else.
const hotpathSchema = "mint.bench_hotpath/v4"

// The leaf-heavy sample: the wiki-talk graph of the serving benchmark's
// heavy batch, where M4's search trees are mostly leaves.
const (
	leafDataset = "wiki-talk"
	leafScale   = 0.01
)

// hotpathRow is one motif's executor-vs-Algorithm-1 measurement.
type hotpathRow struct {
	Motif             string  `json:"motif"`
	Matches           int64   `json:"matches"`
	ReferenceNsOp     int64   `json:"reference_ns_per_op"`
	ExecutorNsOp      int64   `json:"executor_ns_per_op"`
	Speedup           float64 `json:"speedup"`
	ReferenceAllocsOp int64   `json:"reference_allocs_per_op"`
	ExecutorAllocsOp  int64   `json:"executor_allocs_per_op"`
	ReferenceBytesOp  int64   `json:"reference_bytes_per_op"`
	ExecutorBytesOp   int64   `json:"executor_bytes_per_op"`
}

// leafHeavy is the leaf-heavy sample's rows: M4 on the executor, M4 on
// the star kernel, and the routed co-mined M1–M4 set, each against
// Algorithm 1 (four runs for the set).
type leafHeavy struct {
	Dataset    string       `json:"dataset"`
	Scale      float64      `json:"scale"`
	GraphNodes int          `json:"graph_nodes"`
	GraphEdges int          `json:"graph_edges"`
	Rows       []hotpathRow `json:"benchmarks"`
}

// comineRow is the co-mining measurement: ONE co-mined pass over the
// 4-motif profile workload against four sequential per-motif runs of
// the same executor, both single-threaded so the ratio isolates
// shared-prefix reuse rather than parallelism.
type comineRow struct {
	Motifs         []string `json:"motifs"`
	SequentialNsOp int64    `json:"sequential_ns_per_op"`
	ComineNsOp     int64    `json:"comine_ns_per_op"`
	Speedup        float64  `json:"speedup"`
	Groups         int      `json:"groups"`
	ForkPoints     int      `json:"fork_points"`
	SharedRatio    float64  `json:"shared_prefix_ratio"`
}

// hotpathReport is the BENCH_hotpath.json payload.
type hotpathReport struct {
	Schema         string       `json:"schema"`
	GeneratedUnix  int64        `json:"generated_unix"`
	Dataset        string       `json:"dataset"`
	Scale          float64      `json:"scale"`
	GraphNodes     int          `json:"graph_nodes"`
	GraphEdges     int          `json:"graph_edges"`
	Rows           []hotpathRow `json:"benchmarks"`
	GeomeanSpeedup float64      `json:"geomean_speedup"`
	Comine         *comineRow   `json:"comine,omitempty"`
	LeafHeavy      *leafHeavy   `json:"leaf_heavy,omitempty"`
}

func main() {
	out := flag.String("out", "", "output JSON path (default per mode)")
	edges := flag.Int("edges", 6000, "synthetic graph edge count (obs mode)")
	seed := flag.Int64("seed", 99, "graph generation seed (obs mode)")
	hotpath := flag.Bool("hotpath", false, "measure the mining executor against Algorithm 1 instead of obs overhead")
	check := flag.Bool("check", false, "with -hotpath: compare a fresh measurement against the committed report and fail on >10% speedup regression")
	dataset := flag.String("dataset", "email-eu", "Table I dataset to sample (hotpath mode)")
	scale := flag.Float64("scale", 0.06, "dataset edge-count scale (hotpath mode)")
	flag.Parse()

	if *hotpath {
		if *out == "" {
			*out = "BENCH_hotpath.json"
		}
		if err := runHotpath(*out, *dataset, *scale, *check); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		*out = "BENCH_obs.json"
	}
	if err := runObsReport(*out, *edges, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runObsReport(out string, edges int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	g := testutil.RandomGraph(rng, 64, edges, 20_000)

	rep := benchReport{
		Schema:        "mint.bench_obs/v1",
		GeneratedUnix: time.Now().Unix(),
		GraphNodes:    g.NumNodes(),
		GraphEdges:    g.NumEdges(),
	}
	logRatio, logTraceRatio := 0.0, 0.0
	for _, m := range temporal.EvaluationMotifs(3600) {
		var res mackey.Result
		off := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res = mackey.Mine(g, m, mackey.Options{})
			}
		})
		reg := obs.New("benchreport_" + m.Name)
		on := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res = mackey.Mine(g, m, mackey.Options{Obs: reg})
			}
		})
		// Serving configuration: the per-request tracer and the
		// trace-tagged controller mintd's handlers attach.
		ctl := runctl.New(context.Background(), runctl.Budget{})
		ctl.SetTraceID(obs.NewTraceContext().TraceID)
		tr := obs.NewTracer(128)
		traced := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res = mackey.Mine(g, m, mackey.Options{Obs: reg, Trace: tr, Ctl: ctl})
			}
		})
		row := benchRow{
			Motif:      m.Name,
			Matches:    res.Matches,
			ObsOffNsOp: off.NsPerOp(),
			ObsOnNsOp:  on.NsPerOp(),
			TraceNsOp:  traced.NsPerOp(),
			Ratio:      float64(on.NsPerOp()) / float64(off.NsPerOp()),
			TraceRatio: float64(traced.NsPerOp()) / float64(off.NsPerOp()),
		}
		logRatio += math.Log(row.Ratio)
		logTraceRatio += math.Log(row.TraceRatio)
		rep.Rows = append(rep.Rows, row)
		fmt.Printf("%-4s off %10d ns/op   on %10d ns/op   traced %10d ns/op   ratio %.4f   trace ratio %.4f   matches %d\n",
			row.Motif, row.ObsOffNsOp, row.ObsOnNsOp, row.TraceNsOp, row.Ratio, row.TraceRatio, row.Matches)
	}
	rep.GeomeanRatio = math.Exp(logRatio / float64(len(rep.Rows)))
	rep.GeomeanTraceRatio = math.Exp(logTraceRatio / float64(len(rep.Rows)))
	fmt.Printf("geomean overhead ratio: %.4f   geomean trace ratio: %.4f\n", rep.GeomeanRatio, rep.GeomeanTraceRatio)
	return writeJSON(out, rep)
}

// measureHotpath runs the executor/Algorithm 1 benchmark for M1–M4 on a
// seeded sample of the named Table I dataset (nodes kept at full count so
// the sample has realistic degree structure rather than the near-clique a
// uniform shrink produces).
func measureHotpath(dataset string, scale float64) (hotpathReport, error) {
	spec, err := datasets.ByName(dataset)
	if err != nil {
		return hotpathReport{}, err
	}
	g, err := datasets.GenerateWithNodeScale(spec, scale, 1.0)
	if err != nil {
		return hotpathReport{}, err
	}
	rep := hotpathReport{
		Schema:        hotpathSchema,
		GeneratedUnix: time.Now().Unix(),
		Dataset:       spec.Name,
		Scale:         scale,
		GraphNodes:    g.NumNodes(),
		GraphEdges:    g.NumEdges(),
	}
	logSpeedup := 0.0
	for _, m := range temporal.EvaluationMotifs(temporal.DeltaHour) {
		row := executorRow(m.Name, func() int64 {
			return mackey.MineAlgorithm1(g, m, mackey.Options{}).Matches
		}, func() int64 {
			return mackey.Mine(g, m, mackey.Options{}).Matches
		})
		logSpeedup += math.Log(row.Speedup)
		rep.Rows = append(rep.Rows, row)
	}
	rep.GeomeanSpeedup = math.Exp(logSpeedup / float64(len(rep.Rows)))
	fmt.Printf("geomean speedup: %.2fx\n", rep.GeomeanSpeedup)
	cr, err := measureComine(g)
	if err != nil {
		return rep, err
	}
	rep.Comine = &cr
	lh, err := measureLeafHeavy()
	if err != nil {
		return rep, err
	}
	rep.LeafHeavy = &lh
	return rep, nil
}

// executorRow A/B-benchmarks a reference run against an executor run,
// each returning its match count.
func executorRow(name string, reference, executor func() int64) hotpathRow {
	var matches int64
	ref, exe := interleave(func() { matches = reference() }, func() { matches = executor() })
	row := hotpathRow{
		Motif:             name,
		Matches:           matches,
		ReferenceNsOp:     ref.ns,
		ExecutorNsOp:      exe.ns,
		Speedup:           ref.ratio,
		ReferenceAllocsOp: ref.allocs,
		ExecutorAllocsOp:  exe.allocs,
		ReferenceBytesOp:  ref.bytes,
		ExecutorBytesOp:   exe.bytes,
	}
	fmt.Printf("%-4s algorithm1 %10d ns/op %5d allocs/op   executor %10d ns/op %5d allocs/op   speedup %.2fx   matches %d\n",
		row.Motif, row.ReferenceNsOp, row.ReferenceAllocsOp,
		row.ExecutorNsOp, row.ExecutorAllocsOp, row.Speedup, row.Matches)
	return row
}

// measureLeafHeavy benchmarks the leaf-heavy sample: M4 on the
// executor and on its star kernel, and the co-mined M1–M4 pass against
// four Algorithm 1 runs. Both sides are single-threaded.
func measureLeafHeavy() (leafHeavy, error) {
	spec, err := datasets.ByName(leafDataset)
	if err != nil {
		return leafHeavy{}, err
	}
	g, err := datasets.Generate(spec, leafScale)
	if err != nil {
		return leafHeavy{}, err
	}
	motifs := temporal.EvaluationMotifs(temporal.DeltaHour)
	plan, err := comine.PlanSet(motifs)
	if err != nil {
		return leafHeavy{}, err
	}
	lh := leafHeavy{Dataset: spec.Name, Scale: leafScale, GraphNodes: g.NumNodes(), GraphEdges: g.NumEdges()}
	fmt.Printf("leaf-heavy sample: %s at scale %g (%d nodes, %d edges)\n", spec.Name, leafScale, g.NumNodes(), g.NumEdges())
	m4 := motifs[3]
	lh.Rows = append(lh.Rows, executorRow(m4.Name, func() int64 {
		return mackey.MineAlgorithm1(g, m4, mackey.Options{}).Matches
	}, func() int64 {
		return mackey.Mine(g, m4, mackey.Options{}).Matches
	}))
	star, ok := mackey.KernelFor(g, m4, mackey.Options{}, runctl.Budget{})
	if !ok {
		return lh, fmt.Errorf("benchreport: %s is not routed to a star kernel on %s", m4.Name, spec.Name)
	}
	var mineErr error
	lh.Rows = append(lh.Rows, executorRow(m4.Name+"-kernel", func() int64 {
		return mackey.MineAlgorithm1(g, m4, mackey.Options{}).Matches
	}, func() int64 {
		res, err := mackey.MineStarCtx(context.Background(), g, star, m4.Delta, mackey.Options{Workers: 1}, runctl.Budget{})
		if err != nil {
			mineErr = err
		}
		return res.Matches
	}))
	lh.Rows = append(lh.Rows, executorRow("comine", func() int64 {
		var n int64
		for _, m := range motifs {
			n += mackey.MineAlgorithm1(g, m, mackey.Options{}).Matches
		}
		return n
	}, func() int64 {
		res, err := comine.MineCtx(context.Background(), g, plan, comine.Options{Workers: 1}, runctl.Budget{})
		if err != nil {
			mineErr = err
		}
		var n int64
		for _, pm := range res.PerMotif {
			n += pm.Matches
		}
		return n
	}))
	return lh, mineErr
}

// measureComine A/B-benchmarks the profile workload: four sequential
// per-motif runs of the executor vs one co-mined pass over the
// same set. The M1–M4 family shares its canonical (0→1) and (0→1,1→2)
// prefixes, so the co-mined side skips the repeated prefix expansions a
// per-motif sweep pays four times, and it counts M4 with the star kernel.
func measureComine(g *temporal.Graph) (comineRow, error) {
	motifs := temporal.EvaluationMotifs(temporal.DeltaHour)
	plan, err := comine.PlanSet(motifs)
	if err != nil {
		return comineRow{}, err
	}
	row := comineRow{
		Groups:      len(plan.Groups),
		ForkPoints:  plan.ForkPoints(),
		SharedRatio: plan.SharedRatio(),
	}
	for _, m := range motifs {
		row.Motifs = append(row.Motifs, m.Name)
	}
	var mineErr error
	seq, co := interleave(func() {
		for _, m := range motifs {
			mackey.Mine(g, m, mackey.Options{})
		}
	}, func() {
		if _, err := comine.MineCtx(context.Background(), g, plan,
			comine.Options{Workers: 1}, runctl.Budget{}); err != nil {
			mineErr = err
		}
	})
	if mineErr != nil {
		return comineRow{}, mineErr
	}
	row.SequentialNsOp = seq.ns
	row.ComineNsOp = co.ns
	row.Speedup = seq.ratio
	fmt.Printf("comine %v: sequential %10d ns/op   co-mined %10d ns/op   speedup %.2fx   (%d groups, %d fork points, shared ratio %.2f)\n",
		row.Motifs, row.SequentialNsOp, row.ComineNsOp, row.Speedup, row.Groups, row.ForkPoints, row.SharedRatio)
	return row, nil
}

// hotpathRounds is how many interleaved rounds interleave runs;
// allocRuns is how many runs testing.AllocsPerRun averages.
const (
	hotpathRounds = 5
	allocRuns     = 5
)

// sideResult is one side of an interleaved A/B measurement: the median
// round's ns/op, the worst round's B/op, allocs per run from
// testing.AllocsPerRun after a warm-up run (a GC that empties the
// worker pools during a timed round would add the refill to allocs/op),
// and (on the A side) the median over rounds of A's ns/op divided by
// B's.
type sideResult struct {
	ns, allocs, bytes int64
	ratio             float64
}

// interleave benchmarks a and b in hotpathRounds rounds, a then b in each.
func interleave(a, b func()) (ra, rb sideResult) {
	bench := func(f func()) testing.BenchmarkResult {
		return testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				f()
			}
		})
	}
	var aNs, bNs, ratios []float64
	for r := 0; r < hotpathRounds; r++ {
		x, y := bench(a), bench(b)
		aNs = append(aNs, float64(x.NsPerOp()))
		bNs = append(bNs, float64(y.NsPerOp()))
		ratios = append(ratios, float64(x.NsPerOp())/float64(y.NsPerOp()))
		ra.bytes = max(ra.bytes, x.AllocedBytesPerOp())
		rb.bytes = max(rb.bytes, y.AllocedBytesPerOp())
	}
	ra.ns, rb.ns, ra.ratio = int64(median(aNs)), int64(median(bNs)), median(ratios)
	ra.allocs = int64(testing.AllocsPerRun(allocRuns, a))
	rb.allocs = int64(testing.AllocsPerRun(allocRuns, b))
	return ra, rb
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

func runHotpath(out, dataset string, scale float64, check bool) error {
	if !check {
		rep, err := measureHotpath(dataset, scale)
		if err != nil {
			return err
		}
		if err := writeJSON(out, rep); err != nil {
			return err
		}
		return nil
	}

	// Regression guard: re-measure with the committed report's own dataset
	// parameters and compare speedup ratios. Ratios cancel the machine's
	// absolute speed, so a slower CI box does not trip the guard — only a
	// change that erodes the executor's advantage over Algorithm 1 does.
	data, err := os.ReadFile(out)
	if err != nil {
		return fmt.Errorf("benchreport: reading committed report: %w (generate one with -hotpath first)", err)
	}
	var committed hotpathReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("benchreport: parsing %s: %w", out, err)
	}
	if committed.Schema != hotpathSchema {
		return fmt.Errorf("benchreport: %s has schema %q, want %q (regenerate with -hotpath)", out, committed.Schema, hotpathSchema)
	}
	if committed.LeafHeavy == nil {
		return fmt.Errorf("benchreport: %s has no leaf_heavy rows (regenerate with -hotpath)", out)
	}
	if committed.Dataset != "" {
		dataset = committed.Dataset
	}
	if committed.Scale > 0 {
		scale = committed.Scale
	}
	fresh, err := measureHotpath(dataset, scale)
	if err != nil {
		return err
	}
	const tolerance = 0.9 // >10% speedup regression fails
	failed := false
	checkRows := func(sample string, fresh, committed []hotpathRow) {
		for _, fr := range fresh {
			for _, cr := range committed {
				if cr.Motif != fr.Motif {
					continue
				}
				floor := cr.Speedup * tolerance
				if fr.Speedup < floor {
					failed = true
					fmt.Fprintf(os.Stderr, "REGRESSION %s%s: speedup %.2fx < %.2fx (committed %.2fx - 10%%)\n",
						sample, fr.Motif, fr.Speedup, floor, cr.Speedup)
				} else {
					fmt.Printf("ok %s%s: speedup %.2fx (committed %.2fx, floor %.2fx)\n",
						sample, fr.Motif, fr.Speedup, cr.Speedup, floor)
				}
				if fr.Matches != cr.Matches {
					failed = true
					fmt.Fprintf(os.Stderr, "REGRESSION %s%s: %d matches (committed %d)\n",
						sample, fr.Motif, fr.Matches, cr.Matches)
				}
				if fr.ExecutorAllocsOp > cr.ExecutorAllocsOp {
					failed = true
					fmt.Fprintf(os.Stderr, "REGRESSION %s%s: %d allocs/op in the executor (committed %d)\n",
						sample, fr.Motif, fr.ExecutorAllocsOp, cr.ExecutorAllocsOp)
				}
			}
		}
	}
	checkRows("", fresh.Rows, committed.Rows)
	checkRows("leaf-heavy ", fresh.LeafHeavy.Rows, committed.LeafHeavy.Rows)
	if committed.Comine != nil && fresh.Comine != nil {
		floor := committed.Comine.Speedup * tolerance
		if fresh.Comine.Speedup < floor {
			failed = true
			fmt.Fprintf(os.Stderr, "REGRESSION comine: speedup %.2fx < %.2fx (committed %.2fx - 10%%)\n",
				fresh.Comine.Speedup, floor, committed.Comine.Speedup)
		} else {
			fmt.Printf("ok comine: speedup %.2fx (committed %.2fx, floor %.2fx)\n",
				fresh.Comine.Speedup, committed.Comine.Speedup, floor)
		}
	}
	if failed {
		return fmt.Errorf("benchreport: hot-path regression against committed %s", out)
	}
	fmt.Printf("hot-path guard passed against %s\n", out)
	return nil
}

func writeJSON(out string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
