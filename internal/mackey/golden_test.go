package mackey

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mint/internal/temporal"
	"mint/internal/testutil"
)

// Regenerate with: go test ./internal/mackey/ -run TestStatsGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden Stats fixture")

const goldenStatsPath = "testdata/stats_golden.json"

// goldenCase is one pinned run: the engine, the seeded graph, the motif
// and δ, and the exact Stats the run reported. PoolReuse is zeroed before
// recording — it depends on what earlier runs left in the pool, not on
// the mining work.
type goldenCase struct {
	Engine string `json:"engine"`
	Seed   int64  `json:"seed"`
	Motif  string `json:"motif"`
	Delta  int64  `json:"delta"`
	Stats  Stats  `json:"stats"`
}

// goldenEngines are the single-motif entry points whose Stats feed the
// Fig 7 / Fig 11 accounting; MineParallel runs one worker so its chunk
// order, and with it every counter, is deterministic.
var goldenEngines = []struct {
	name string
	mine func(*temporal.Graph, *temporal.Motif) Result
}{
	{"mine", func(g *temporal.Graph, m *temporal.Motif) Result { return Mine(g, m, Options{}) }},
	{"memo", func(g *temporal.Graph, m *temporal.Motif) Result { return MineMemo(g, m, Options{}) }},
	{"algorithm1", func(g *temporal.Graph, m *temporal.Motif) Result { return MineAlgorithm1(g, m, Options{}) }},
	{"parallel-1", func(g *temporal.Graph, m *temporal.Motif) Result {
		return MineParallel(g, m, Options{Workers: 1})
	}},
}

func goldenRuns() []goldenCase {
	var out []goldenCase
	for _, seed := range []int64{11, 29} {
		g := testutil.RandomGraph(rand.New(rand.NewSource(seed)), 24, 2000, 10_000)
		for _, delta := range []temporal.Timestamp{300, 1200} {
			for _, m := range temporal.EvaluationMotifs(delta) {
				for _, e := range goldenEngines {
					s := e.mine(g, m).Stats
					s.PoolReuse = 0
					out = append(out, goldenCase{Engine: e.name, Seed: seed, Motif: m.Name, Delta: int64(delta), Stats: s})
				}
			}
		}
	}
	return out
}

// TestStatsGolden pins the exact Stats — every counter except PoolReuse —
// of the sequential, memoized, Algorithm 1 and single-worker parallel
// miners on M1–M4 × two seeded graphs × two δ. Refactors of the mining
// traversal must leave every number unchanged.
func TestStatsGolden(t *testing.T) {
	got := goldenRuns()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, fixture has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		id := fmt.Sprintf("%s seed=%d %s δ=%d", w.Engine, w.Seed, w.Motif, w.Delta)
		if g.Engine != w.Engine || g.Seed != w.Seed || g.Motif != w.Motif || g.Delta != w.Delta {
			t.Fatalf("run %d is %s seed=%d %s δ=%d, fixture has %s", i, g.Engine, g.Seed, g.Motif, g.Delta, id)
		}
		if g.Stats != w.Stats {
			t.Errorf("%s:\n got %+v\nwant %+v", id, g.Stats, w.Stats)
		}
	}
}
