package mint

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mint/internal/mackey"
	"mint/internal/testutil"
)

// TestTraceMatchesSoftware is the deep version of the count cross-check:
// the *set of matched edge sequences* produced by the timed simulator must
// equal the software miner's, not merely the totals — the equivalent of
// the paper's compute-trace matching (§VII-C). Order differs (512 PEs
// interleave trees), so multisets are compared.
func TestTraceMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 15; trial++ {
		g := testutil.RandomGraph(rng, 5+rng.Intn(6), 20+rng.Intn(60), 200)
		m := testutil.RandomConnectedMotif(rng, 2+rng.Intn(3), 60)

		var swMatches []string
		mackey.Mine(g, m, mackey.Options{Probe: traceProbe{&swMatches}})

		var simMatches []string
		cfg := testConfig()
		cfg.Probe = func(edges []int32) {
			simMatches = append(simMatches, encode(edges))
		}
		res, err := Simulate(g, m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Matches) != len(simMatches) {
			t.Fatalf("trial %d: probe saw %d matches, result says %d",
				trial, len(simMatches), res.Matches)
		}
		sort.Strings(swMatches)
		sort.Strings(simMatches)
		if len(swMatches) != len(simMatches) {
			t.Fatalf("trial %d: sim %d matches vs software %d",
				trial, len(simMatches), len(swMatches))
		}
		for i := range swMatches {
			if swMatches[i] != simMatches[i] {
				t.Fatalf("trial %d: trace divergence at %d: %q vs %q",
					trial, i, simMatches[i], swMatches[i])
			}
		}
	}
}

type traceProbe struct{ out *[]string }

func (p traceProbe) NeighborhoodAccess(int32, bool, int, int, int32) {}
func (p traceProbe) Match(edges []int32)                             { *p.out = append(*p.out, encode(edges)) }

func encode(edges []int32) string {
	var b strings.Builder
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(itoa32(e))
	}
	return b.String()
}

func itoa32(v int32) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestSimulateProbeAllocsFlat: every Probe call receives one reused
// buffer, so attaching a Probe adds allocations that do not grow with
// the match count.
func TestSimulateProbeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled task contexts at random under -race")
	}
	g := testutil.RandomGraph(rand.New(rand.NewSource(41)), 10, 300, 300)
	m := cycle3(100)
	cfg := testConfig()
	res, err := Simulate(g, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches < 100 {
		t.Fatalf("test graph too sparse: %d matches", res.Matches)
	}
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Simulate(g, m, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := allocs(cfg)
	var seen int64
	cfg.Probe = func([]int32) { seen++ }
	probed := allocs(cfg)
	if seen != 6*res.Matches {
		t.Fatalf("probe saw %d matches over 6 runs, want %d", seen, 6*res.Matches)
	}
	if probed-bare > 1 {
		t.Fatalf("a Probe adds %.0f allocations per run over %d matches, want at most 1", probed-bare, res.Matches)
	}
}
