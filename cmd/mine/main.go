// Command mine runs the software temporal motif miners on a dataset and
// motif: the Mackey et al. exact algorithm (sequential, parallel, or
// memoized), the Paranjape et al. static-first baseline, the PRESTO
// approximate sampler, the GPU SIMT timing model, and the exact→approx
// fallback path.
//
// Long runs are interruptible: SIGINT/SIGTERM cancel the mining context,
// and -timeout / -maxmatches / -maxnodes bound the run up front. An
// interrupted or budget-capped run prints its exact partial results
// (flagged as truncated) instead of dying silently.
//
// Observability: -obs.listen starts an expvar/pprof HTTP server whose
// /debug/vars document embeds a live snapshot of the run's metric
// registry; -report writes a structured end-of-run RunReport JSON;
// -trace records the run as one request trace (the engines' spans under
// a mine span) and writes it in Chrome trace_event format (loadable in
// chrome://tracing or ui.perfetto.dev).
//
// Usage:
//
//	mine -algo mackey -dataset wiki-talk -motif M1
//	mine -motifs M1,M2,M3,M4 -dataset wiki-talk
//	mine -algo presto -graph edges.txt -motifspec "A->B;B->A"
//	mine -algo fallback -dataset wiki-talk -timeout 2s
//	mine -algo mackey -dataset em -obs.listen :8080 -report out.json
//
// -motifs co-mines the whole set in one engine pass (same-δ motifs
// share a traversal, see internal/comine) under the run's single
// budget, printing one exact per-motif line each.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mint"
	"mint/internal/comine"
	"mint/internal/cyclemine"
	"mint/internal/datasets"
	"mint/internal/edgelog"
	"mint/internal/faultinject"
	"mint/internal/gpumodel"
	"mint/internal/mackey"
	"mint/internal/obs"
	"mint/internal/paranjape"
	"mint/internal/presto"
	"mint/internal/runctl"
	"mint/internal/task"
	"mint/internal/temporal"
)

func main() {
	algo := flag.String("algo", "mackey", "mackey | mackey-seq | mackey-memo | taskqueue | paranjape | presto | gpu | cycles | fallback")
	datasetName := flag.String("dataset", "", "dataset name or abbreviation (em/mo/ub/su/wt/so)")
	graphPath := flag.String("graph", "", "SNAP-format temporal graph file (overrides -dataset)")
	walDir := flag.String("wal", "", "mine the live graph of a streaming-ingest WAL directory (see mintd -ingest-dir); overrides -graph/-dataset")
	walVerify := flag.Bool("wal-verify", false, "read-only WAL fsck of -wal: per-segment CRC status, torn tail, snapshot fingerprint, epoch; exits non-zero on corruption (no mining)")
	scale := flag.Float64("scale", 0.01, "synthetic dataset scale (0,1]")
	motifName := flag.String("motif", "M1", "evaluation motif: M1..M4")
	motifSpec := flag.String("motifspec", "", "explicit motif, e.g. \"A->B;B->C;C->A\"")
	motifSet := flag.String("motifs", "", "co-mine a motif SET in one pass, e.g. \"M1,M2,M4\" (overrides -algo/-motif)")
	deltaSec := flag.Int64("delta", int64(temporal.DeltaHour), "motif time window δ in seconds")
	workers := flag.Int("workers", 0, "worker threads (0 = GOMAXPROCS)")
	windows := flag.Int("windows", 32, "presto: sampled windows")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none)")
	maxMatches := flag.Int64("maxmatches", 0, "stop after this many matches (0 = unlimited)")
	maxNodes := flag.Int64("maxnodes", 0, "stop after this many search-tree node expansions (0 = unlimited)")
	chaosSpec := flag.String("chaos", "", "fault-injection plan: comma-separated seed=N, panic=P, delay=P, error=P, drop=P (probabilities in [0,1]), delaydur=DUR, sites=PREFIX; engine sites: mackey.chunk, mackey.root, task.root, task.queue, mint.cycle; WAL sites (with -wal): edgelog.append, edgelog.fsync, edgelog.rotate, edgelog.replay, edgelog.compact; e.g. \"seed=1,panic=0.01,error=0.02,delaydur=5ms,sites=mackey\" (testing)")
	checkpointPath := flag.String("checkpoint", "", "mackey: write crash-safe progress snapshots here (enables the supervised miner)")
	resume := flag.Bool("resume", false, "mackey: resume from -checkpoint, skipping completed chunks")
	obsListen := flag.String("obs.listen", "", "serve expvar (/debug/vars) and pprof on this address (e.g. :8080 or :0)")
	obsLinger := flag.Duration("obs.linger", 0, "keep the -obs.listen server alive this long after the run finishes")
	reportPath := flag.String("report", "", "write the end-of-run RunReport JSON here")
	tracePath := flag.String("trace", "", "write a Chrome trace_event dump of the run's spans here")
	flag.Parse()

	if *walVerify {
		if *walDir == "" {
			fatal(fmt.Errorf("-wal-verify needs -wal=<dir>"))
		}
		verifyWAL(*walDir)
		return
	}

	// SIGINT/SIGTERM cancel the mining context: interrupted runs unwind
	// cooperatively and print their partial results below.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}
	budget := runctl.Budget{MaxMatches: *maxMatches, MaxNodes: *maxNodes}

	// Validate the chaos spec before the (possibly minutes-long) dataset
	// load: a typo in item 3 of a long plan should fail at startup with
	// the item named, not after the graph is in memory.
	var plan *faultinject.Plan
	if *chaosSpec != "" {
		var perr error
		if plan, perr = faultinject.Parse(*chaosSpec); perr != nil {
			fatal(perr)
		}
	}

	var g *temporal.Graph
	var err error
	if *walDir != "" {
		// -wal replays a streaming-ingest log (snapshot + records, torn
		// tail repaired, CRC-verified) into the live graph, so an offline
		// mine sees exactly what a restarted mintd would serve. The chaos
		// plan reaches the replay path (edgelog.replay), mirroring the
		// engines.
		g, err = loadWAL(*walDir, plan)
	} else {
		g, err = loadGraph(*graphPath, *datasetName, *scale)
	}
	if err != nil {
		fatal(err)
	}
	// -motifs switches the run to the co-mining engine: the whole set in
	// one pass, one shared budget.
	var batch []*temporal.Motif
	if *motifSet != "" {
		*algo = "comine"
		for _, name := range strings.Split(*motifSet, ",") {
			bm, err := loadMotif("", strings.TrimSpace(name), temporal.Timestamp(*deltaSec))
			if err != nil {
				fatal(err)
			}
			batch = append(batch, bm)
		}
	}
	m, err := loadMotif(*motifSpec, *motifName, temporal.Timestamp(*deltaSec))
	if err != nil {
		fatal(err)
	}
	if len(batch) > 0 {
		m = batch[0]
		fmt.Printf("graph: %d nodes, %d edges; motif set {%s} co-mined, δ=%ds\n",
			g.NumNodes(), g.NumEdges(), *motifSet, *deltaSec)
	} else {
		fmt.Printf("graph: %d nodes, %d edges; motif %s = %s, δ=%ds; algo=%s\n",
			g.NumNodes(), g.NumEdges(), m.Name, m, m.Delta, *algo)
	}

	// One registry and, with -trace, one request trace per process,
	// attached to whichever engine the chosen algorithm runs: the engines
	// record their spans under the trace's mine span, as mintd's do.
	// -obs.listen exposes the registry live (the snapshot folds sharded
	// counters on every scrape).
	reg := obs.New("mine")
	var rt *obs.ReqTrace
	if *tracePath != "" {
		rt = obs.NewReqTrace(obs.NewTraceContext(), "cmd.mine", "")
	}
	msp := rt.Begin("mine", rt.RootID())
	msp.Set("algo", *algo)
	reg.Gauge("runctl.budget.max_matches").Set(*maxMatches)
	reg.Gauge("runctl.budget.max_nodes").Set(*maxNodes)
	if *obsListen != "" {
		srv, err := obs.Serve(*obsListen, reg)
		if err != nil {
			fatal(err)
		}
		// Drain, don't yank: the listener closes immediately but an
		// in-flight /debug/vars scrape gets a bounded grace to finish.
		defer func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			srv.Shutdown(sctx) //nolint:errcheck // best-effort at exit
		}()
		fmt.Printf("obs: serving on http://%s/debug/vars (pprof at /debug/pprof/)\n", srv.Addr())
	}
	// One controller for the whole run: it carries the budget, the stop
	// flag, and — when -chaos is set — the deterministic fault plan every
	// engine's injection hooks roll against.
	ctl := runctl.New(ctx, budget)
	if plan != nil {
		ctl.SetFaultPlan(plan)
		fmt.Printf("chaos: %s\n", plan)
	}
	opts := mackey.Options{Workers: *workers, Obs: reg, Trace: msp, Ctl: ctl}

	var oc outcome
	start := time.Now()
	switch *algo {
	case "comine":
		cplan, err := comine.PlanSet(batch)
		if err != nil {
			fatal(err)
		}
		res, err := comine.MineCtx(ctx, g, cplan,
			comine.Options{Workers: *workers, Ctl: ctl, Obs: reg, Trace: msp}, budget)
		if err != nil {
			fatal(err)
		}
		for _, pm := range res.PerMotif {
			mark := ""
			if pm.Truncated {
				mark = fmt.Sprintf("  (truncated: %s; exact partial)", pm.StopReason)
			}
			fmt.Printf("%-6s %s: %d%s\n", pm.Motif.Name, pm.Motif, pm.Matches, mark)
			oc.matches += pm.Matches
		}
		fmt.Printf("co-mined %d motifs in %d groups (%d fork points, %d shared expansions) in %v\n",
			len(batch), res.Groups, res.ForkPoints, res.SharedExpansions, time.Since(start))
		taskStats(res.Stats)
		oc.truncated = res.Truncated
		oc.reason = res.StopReason
		if res.Truncated {
			truncNote(res.StopReason)
		}
	case "mackey":
		if *checkpointPath != "" || *resume {
			opts.Supervision = mackey.Supervise(mackey.SupervisorOptions{
				CheckpointPath: *checkpointPath,
				Resume:         *resume,
			})
		}
		res, err := mackey.MineParallelCtx(ctx, g, m, opts, budget)
		if err != nil {
			fatal(err)
		}
		oc = mineOutcome(res)
		reportMine(res, start)
		if opts.Supervision != nil {
			sup := opts.Supervision.Result()
			fmt.Printf("supervisor: %d/%d chunks done (%d resumed), %d retries, %d requeues\n",
				sup.ChunksDone, sup.ChunksTotal, sup.ChunksResumed, sup.Retries, sup.Requeues)
			for _, p := range sup.Poisoned {
				fmt.Printf("supervisor: chunk %d POISONED after %d attempts: %s\n", p.Chunk, p.Attempts, p.Err)
			}
		}
	case "mackey-seq":
		res := mackey.MineCtx(ctx, g, m, mackey.Options{Obs: reg, Trace: msp, Ctl: ctl}, budget)
		oc = mineOutcome(res)
		reportMine(res, start)
	case "mackey-memo":
		res, err := mackey.MineParallelMemoCtx(ctx, g, m, opts, budget)
		if err != nil {
			fatal(err)
		}
		oc = mineOutcome(res)
		reportMine(res, start)
		fmt.Printf("memo: %d hits, %d entries skipped\n",
			res.Stats.MemoHits, res.Stats.MemoSkippedEntries)
	case "taskqueue":
		res, err := task.RunQueueCtlObs(g, m, *workers, 0, ctl, reg)
		if err != nil {
			fatal(err)
		}
		oc = outcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason}
		report(res.Matches, start)
		if res.Truncated {
			truncNote(res.StopReason)
		}
	case "paranjape":
		res := paranjape.Count(g, m)
		oc.matches = res.Matches
		report(res.Matches, start)
		fmt.Printf("static instances: %d (ratio %.1fx)\n", res.Stats.StaticInstances,
			float64(res.Stats.StaticInstances)/float64(max64(res.Matches, 1)))
	case "presto":
		res, err := presto.EstimateCtx(ctx, g, m, presto.Config{Windows: *windows, C: 1.25, Seed: 1})
		if err != nil {
			fatal(err)
		}
		oc = outcome{matches: int64(res.Estimate), truncated: res.Truncated, reason: res.StopReason}
		fmt.Printf("estimate: %.1f motifs in %v (%d windows, %d edges processed)\n",
			res.Estimate, time.Since(start), res.WindowsRun, res.EdgesProcessed)
		if res.Truncated {
			truncNote(res.StopReason)
		}
	case "cycles":
		k := len(m.Edges)
		st, err := cyclemine.Count(g, k, m.Delta)
		if err != nil {
			fatal(err)
		}
		oc.matches = st.Matches
		fmt.Printf("temporal %d-cycles: %d in %v (%d walk steps; note: counts Cycle(%d), ignoring -motifspec shape)\n",
			k, st.Matches, time.Since(start), st.WalksTried, k)
	case "gpu":
		res, err := gpumodel.RunCtx(ctx, g, m, gpumodel.DefaultConfig(), budget)
		if err != nil {
			fatal(err)
		}
		oc = outcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason}
		fmt.Printf("matches: %d; modeled GPU time %.6f s (latency %.6f, bandwidth %.6f); %d warp steps (%d divergent)\n",
			res.Matches, res.Seconds, res.LatencySeconds, res.BandwidthSeconds,
			res.WarpSteps, res.DivergentSteps)
		if res.Truncated {
			truncNote(res.StopReason)
		}
	case "fallback":
		res, err := mint.Run(ctx, g, mint.Query{
			Motif:    m,
			Workers:  *workers,
			Budget:   budget,
			Fallback: &mint.ApproxConfig{Windows: *windows, C: 1.25, Seed: 1},
			Chaos:    plan,
			Obs:      reg,
			Trace:    msp,
		})
		if err != nil {
			fatal(err)
		}
		oc = outcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason}
		switch res.Engine {
		case mint.EngineExact:
			fmt.Printf("matches: %d (exact) in %v\n", res.Matches, time.Since(start))
		case mint.EnginePresto:
			fmt.Printf("estimate: %.1f motifs (approximate; exact miner truncated: %s, partial count %d) in %v\n",
				res.Count, res.StopReason, res.Matches, time.Since(start))
		default:
			fmt.Printf("matches: ≥%d (partial lower bound; run interrupted: %s) in %v\n",
				res.Matches, res.StopReason, time.Since(start))
		}
	default:
		fatal(fmt.Errorf("unknown -algo %q", *algo))
	}
	msp.End()

	if plan != nil {
		if fired := plan.Fired(); len(fired) > 0 {
			fmt.Printf("chaos: fired %v\n", fired)
		}
	}
	if *reportPath != "" {
		rep := buildReport(*algo, g, m, *workers, *timeout, budget, start, oc, reg.Snapshot())
		if len(batch) > 0 {
			// The report's motif slot describes the whole co-mined set, not
			// just the first member buildReport saw.
			rep.Motif.Name = "set:" + *motifSet
		}
		switch {
		case *walDir != "":
			rep.Graph.Name = "wal:" + *walDir
		case *graphPath != "":
			rep.Graph.Name = *graphPath
		default:
			rep.Graph.Name = *datasetName
		}
		if err := rep.WriteFile(*reportPath); err != nil {
			fatal(err)
		}
		fmt.Printf("report: wrote %s\n", *reportPath)
	}
	if rt != nil {
		rt.Finish()
		spans := rt.Spans()
		if err := writeTrace(*tracePath, spans); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: wrote %s (%d spans)\n", *tracePath, len(spans))
	}
	if *obsListen != "" && *obsLinger > 0 {
		fmt.Printf("obs: lingering %v for scrapes\n", *obsLinger)
		time.Sleep(*obsLinger)
	}
}

// outcome is what the RunReport needs from whichever algorithm ran.
type outcome struct {
	matches   int64
	truncated bool
	reason    runctl.Reason
}

func mineOutcome(res mackey.Result) outcome {
	return outcome{matches: res.Matches, truncated: res.Truncated, reason: res.StopReason}
}

// buildReport assembles the structured end-of-run report from the run
// identity, the outcome, and the final registry snapshot.
func buildReport(algo string, g *temporal.Graph, m *temporal.Motif, workers int,
	timeout time.Duration, budget runctl.Budget, start time.Time, oc outcome, snap obs.Snapshot) *obs.RunReport {
	rep := obs.NewRunReport("mine", algo)
	rep.Graph = &obs.GraphInfo{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	rep.Motif = &obs.MotifInfo{
		Name:         m.Name,
		Spec:         m.String(),
		Nodes:        m.NumNodes(),
		Edges:        m.NumEdges(),
		DeltaSeconds: int64(m.Delta),
	}
	rep.Workers = workers
	if timeout > 0 || budget.MaxMatches > 0 || budget.MaxNodes > 0 {
		rep.Budget = &obs.BudgetInfo{
			WallSeconds: timeout.Seconds(),
			MaxMatches:  budget.MaxMatches,
			MaxNodes:    budget.MaxNodes,
		}
	}
	rep.StartUnixNano = start.UnixNano()
	rep.WallSeconds = time.Since(start).Seconds()
	rep.CPUSeconds = obs.ProcessCPUSeconds()
	rep.Matches = oc.matches
	rep.Truncated = oc.truncated
	if oc.truncated {
		rep.StopReason = oc.reason.String()
	}
	rep.AttachSnapshot(snap)
	return rep
}

func report(matches int64, start time.Time) {
	fmt.Printf("matches: %d in %v\n", matches, time.Since(start))
}

func reportMine(res mackey.Result, start time.Time) {
	report(res.Matches, start)
	taskStats(res.Stats)
	if res.Truncated {
		truncNote(res.StopReason)
	}
}

func truncNote(r runctl.Reason) {
	fmt.Printf("NOTE: run truncated (%s); counts above are exact partial results\n", r)
}

func taskStats(s mackey.Stats) {
	fmt.Printf("tasks: %d root, %d search, %d bookkeep, %d backtrack; %d candidates examined\n",
		s.RootTasks, s.SearchTasks, s.BookkeepTasks, s.BacktrackTasks, s.CandidateEdges)
}

// loadWAL rebuilds the live graph from a streaming-ingest WAL
// directory. Replay is the same code path a restarting mintd runs:
// snapshot first, then CRC-verified records, with a torn tail repaired
// loudly and any mid-log corruption refused outright.
func loadWAL(dir string, plan *faultinject.Plan) (*temporal.Graph, error) {
	s, rec, err := mint.OpenStream(dir, mint.StreamOptions{SnapshotEvery: -1, Chaos: plan})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	fmt.Printf("wal: replayed %d records (snapshot seq %d) from %s\n", rec.Records, rec.SnapshotSeq, dir)
	if rec.Truncated {
		fmt.Printf("wal: NOTE: torn tail truncated during replay: %s\n", rec.Detail)
	}
	return s.Graph()
}

// verifyWAL is the -wal-verify mode: a read-only fsck of a streaming
// WAL directory. It never repairs anything — a torn tail is reported,
// not truncated — so it is safe to run against a directory another
// process owns. Exits non-zero when the log would not replay cleanly.
func verifyWAL(dir string) {
	rep, err := edgelog.Verify(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wal-verify: %s\n", rep.Dir)
	if rep.HasSnapshot {
		fmt.Printf("  snapshot: seq %d, %d edges, %d standing queries, fingerprint %s\n",
			rep.SnapshotSeq, rep.SnapshotEdges, rep.SnapshotStanding, rep.SnapshotFingerprint)
	} else {
		fmt.Println("  snapshot: none")
	}
	fmt.Printf("  epoch: %d, next seq: %d\n", rep.Epoch, rep.NextSeq)
	for _, seg := range rep.Segments {
		fmt.Printf("  segment %s: first seq %d, %d records, %d bytes — %s\n",
			seg.Name, seg.FirstSeq, seg.Records, seg.Bytes, seg.Status)
	}
	for _, p := range rep.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	if !rep.OK {
		fmt.Println("wal-verify: FAILED")
		os.Exit(1)
	}
	fmt.Println("wal-verify: OK")
}

func loadGraph(path, dataset string, scale float64) (*temporal.Graph, error) {
	if path != "" {
		return temporal.LoadSNAPFile(path)
	}
	if dataset == "" {
		return nil, fmt.Errorf("one of -graph or -dataset is required")
	}
	spec, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	return datasets.Generate(spec, scale)
}

func loadMotif(spec, name string, delta temporal.Timestamp) (*temporal.Motif, error) {
	if spec != "" {
		return temporal.ParseMotif("custom", delta, spec)
	}
	for _, m := range temporal.EvaluationMotifs(delta) {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown motif %q (want M1..M4 or -motifspec)", name)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// writeTrace writes spans to path as a Chrome trace_event document.
func writeTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(obs.WriteChromeTrace(f, spans), f.Close())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mine:", err)
	os.Exit(1)
}
