package mint

import (
	"math/rand"
	"testing"

	"mint/internal/obs"
	"mint/internal/testutil"
)

// TestSimulatePublishesRegistry: the registry after a run must mirror
// the returned Result — counters, cache/DRAM stats, and one per-PE
// occupancy sample each.
func TestSimulatePublishesRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(rng, 10, 120, 300)
	m := cycle3(60)

	cfg := testConfig()
	cfg.Obs = obs.New("sim_test")
	res, err := Simulate(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Snapshot()
	checks := []struct {
		name string
		want int64
	}{
		{"sim.matches", res.Matches},
		{"sim.cycles", res.Cycles},
		{"sim.root_tasks", res.Stats.RootTasks},
		{"sim.search_tasks", res.Stats.SearchTasks},
		{"sim.bookkeep_tasks", res.Stats.BookkeepTasks},
		{"sim.backtrack_tasks", res.Stats.BacktrackTasks},
		{"sim.phase1_entries", res.Stats.Phase1Entries},
		{"sim.busy_cycles", res.Stats.BusyCycles},
		{"cache.hits", res.Cache.Hits},
		{"cache.misses", res.Cache.Misses},
		{"dram.reads", res.DRAM.Reads},
		{"dram.bytes_read", res.DRAM.BytesRead},
	}
	for _, c := range checks {
		if got := snap.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	peHist := snap.Histograms["sim.pe.busy_cycles"]
	if peHist.Count != int64(cfg.PEs) {
		t.Errorf("pe occupancy samples = %d, want %d", peHist.Count, cfg.PEs)
	}
	if peHist.Sum != res.Stats.BusyCycles {
		t.Errorf("pe busy sum = %d, want %d (must partition BusyCycles)", peHist.Sum, res.Stats.BusyCycles)
	}
}

// TestSimulateObsOffIsInert: without a registry the simulator must not
// allocate the per-PE tally and must produce the identical Result.
func TestSimulateObsOffIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := testutil.RandomGraph(rng, 8, 80, 200)
	m := cycle3(50)

	plain, err := Simulate(g, m, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Obs = obs.New("sim_inert")
	observed, err := Simulate(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Errorf("observability changed the simulation:\nplain    %+v\nobserved %+v", plain, observed)
	}
}
