package mackey

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/testutil"
)

// statsCounters is the Stats-field → metric-name correspondence the fold
// must preserve.
var statsCounters = []struct {
	name string
	get  func(Stats) int64
}{
	{"mackey.matches", func(s Stats) int64 { return s.Matches }},
	{"mackey.root_tasks", func(s Stats) int64 { return s.RootTasks }},
	{"mackey.search_tasks", func(s Stats) int64 { return s.SearchTasks }},
	{"mackey.bookkeep_tasks", func(s Stats) int64 { return s.BookkeepTasks }},
	{"mackey.backtrack_tasks", func(s Stats) int64 { return s.BacktrackTasks }},
	{"mackey.candidate_edges", func(s Stats) int64 { return s.CandidateEdges }},
	{"mackey.neighbor_entries", func(s Stats) int64 { return s.NeighborEntries }},
	{"mackey.neighbor_entries_useful", func(s Stats) int64 { return s.NeighborEntriesUseful }},
	{"mackey.binary_searches", func(s Stats) int64 { return s.BinarySearches }},
	{"mackey.memo_hits", func(s Stats) int64 { return s.MemoHits }},
	{"mackey.memo_skipped_entries", func(s Stats) int64 { return s.MemoSkippedEntries }},
	{"mackey.branches", func(s Stats) int64 { return s.Branches }},
	{"mackey.nodes_expanded", func(s Stats) int64 { return s.NodesExpanded }},
	{"mackey.scans_time_pruned", func(s Stats) int64 { return s.TimePrunedScans }},
}

func checkRegistryMatchesStats(t *testing.T, snap obs.Snapshot, s Stats) {
	t.Helper()
	for _, c := range statsCounters {
		if got := snap.Counter(c.name); got != c.get(s) {
			t.Errorf("%s = %d, registry disagrees with returned Stats %d", c.name, c.get(s), got)
		}
	}
}

// TestSequentialMineFoldsIntoRegistry: the registry snapshot after a
// sequential run must equal the returned Stats exactly, and the request
// trace must carry the run span under the open mine span.
func TestSequentialMineFoldsIntoRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(rng, 8, 80, 200)
	m := cycle3(40)

	reg := obs.New("test_seq")
	rt := obs.NewReqTrace(obs.NewTraceContext(), "test", "")
	sp := rt.Begin("mine", rt.RootID())
	res := Mine(g, m, Options{Obs: reg, Trace: sp})
	if res.Matches == 0 {
		t.Fatal("degenerate input: no matches, pick a better seed")
	}
	checkRegistryMatchesStats(t, reg.Snapshot(), res.Stats)
	if res.Stats.TimePrunedScans == 0 {
		t.Error("no time-pruned scans recorded on a δ-bounded run")
	}
	spans := rt.Spans()
	if len(spans) != 2 || spans[1].Name != "mackey.mine" || spans[1].ParentID != sp.ID() {
		t.Fatalf("trace spans = %+v, want one mackey.mine span under the mine span", spans)
	}
}

// TestParallelMineFoldsIntoRegistry: parallel folds are sharded per
// worker; the folded totals must still equal the merged Stats, and the
// chunk/steal counters and worker histograms must be populated.
func TestParallelMineFoldsIntoRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := testutil.RandomGraph(rng, 10, 200, 400)
	m := cycle3(60)

	reg := obs.New("test_par")
	rt := obs.NewReqTrace(obs.NewTraceContext(), "test", "")
	res, err := MineParallelCtx(context.Background(), g, m,
		Options{Workers: 4, Obs: reg, Trace: rt.Begin("mine", rt.RootID())}, runctl.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	checkRegistryMatchesStats(t, snap, res.Stats)
	if snap.Counter("mackey.parallel.chunks") == 0 {
		t.Error("no chunk pulls recorded")
	}
	if snap.Histograms["mackey.worker_busy_ns"].Count != 4 {
		t.Errorf("worker busy histogram count = %d, want 4", snap.Histograms["mackey.worker_busy_ns"].Count)
	}
	if snap.Histograms["mackey.worker_nodes"].Count != 4 {
		t.Errorf("worker nodes histogram count = %d, want 4", snap.Histograms["mackey.worker_nodes"].Count)
	}
	if snap.Gauges["runctl.nodes"] != res.Stats.NodesExpanded {
		t.Errorf("runctl.nodes gauge = %d, want %d", snap.Gauges["runctl.nodes"], res.Stats.NodesExpanded)
	}
	// The root, one span per worker, and the run span.
	if got := len(rt.Spans()); got != 6 {
		t.Errorf("trace spans = %d, want 6", got)
	}
}

// TestTruncatedRunRecordsCancellation: a node-budget truncation must
// bump mackey.truncated_runs and observe a cancellation latency.
func TestTruncatedRunRecordsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomGraph(rng, 10, 400, 400)
	m := cycle3(100)

	reg := obs.New("test_trunc")
	res, err := MineParallelCtx(context.Background(), g, m,
		Options{Workers: 2, Obs: reg}, runctl.Budget{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("run with MaxNodes=1 not truncated")
	}
	snap := reg.Snapshot()
	if snap.Counter("mackey.truncated_runs") != 1 {
		t.Errorf("truncated_runs = %d, want 1", snap.Counter("mackey.truncated_runs"))
	}
	if snap.Histograms["runctl.cancel_latency_ns"].Count != 1 {
		t.Errorf("cancel latency not observed: %+v", snap.Histograms)
	}
}

// TestRegistryProbe: the opt-in probe must route neighborhood accesses
// and matches into the registry, and compose with other probes through
// MultiProbe with nils dropped.
func TestRegistryProbe(t *testing.T) {
	g := fig1Graph()
	m := cycle3(25)

	reg := obs.New("test_probe")
	var capture captureProbe
	p := MultiProbe(nil, RegistryProbe(reg), nil, &capture)
	res := Mine(g, m, Options{Probe: p})

	snap := reg.Snapshot()
	if snap.Counter("mackey.probe_matches") != res.Matches {
		t.Errorf("probe_matches = %d, want %d", snap.Counter("mackey.probe_matches"), res.Matches)
	}
	lens := snap.Histograms["mackey.neighborhood_len"]
	if lens.Count == 0 {
		t.Fatal("no neighborhood accesses observed")
	}
	if int64(capture.accesses) != lens.Count {
		t.Errorf("MultiProbe fan-out uneven: capture saw %d, registry %d", capture.accesses, lens.Count)
	}

	if RegistryProbe(nil) != nil {
		t.Error("RegistryProbe(nil) must be nil")
	}
	if MultiProbe(nil, nil) != nil {
		t.Error("MultiProbe of nils must collapse to nil")
	}
	if MultiProbe(&capture) != Probe(&capture) {
		t.Error("single-survivor MultiProbe must unwrap")
	}
}

// TestPublishRunNilSafety: all obs plumbing must be inert with nil
// registry and tracer.
func TestPublishRunNilSafety(t *testing.T) {
	publishStats(nil, 0, Stats{Matches: 1})
	publishController(nil, nil)
	publishController(obs.New("x"), nil)
	publishRun(Options{}, 0, Result{Truncated: true}, "span", time.Time{})
}
