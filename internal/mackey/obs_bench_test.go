package mackey

import (
	"context"
	"flag"
	"math/rand"
	"testing"
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// The observability contract: instrumentation must cost the sequential
// miner less than 3% wall time. The fold-once design makes this nearly
// free — the hot path is untouched and the registry is written once per
// run — but the guard keeps it honest against future hot-path hooks.

func benchInput() (*temporal.Graph, *temporal.Motif) {
	rng := rand.New(rand.NewSource(99))
	g := testutil.RandomGraph(rng, 64, 6000, 20000)
	return g, cycle3(600)
}

func BenchmarkSeqMinerObsOff(b *testing.B) {
	g, m := benchInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mine(g, m, Options{})
	}
}

func BenchmarkSeqMinerObsOn(b *testing.B) {
	g, m := benchInput()
	reg := obs.New("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracedMine(g, m, Options{Obs: reg})
	}
}

// tracedMine runs the miner the way mintd serves a request: under a
// fresh request trace, whose open mine span the run records into.
func tracedMine(g *temporal.Graph, m *temporal.Motif, opts Options) {
	rt := obs.NewReqTrace(obs.NewTraceContext(), "http.count", "")
	opts.Trace = rt.Begin("mine", rt.RootID())
	Mine(g, m, opts)
	opts.Trace.End()
	rt.Finish()
}

// minMineTime returns the fastest of rounds timed calls of run — min-of-N
// is the standard noise filter for a guard that compares two
// configurations on a shared machine.
func minMineTime(rounds int, run func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestObsOverheadGuard fails if attaching a registry and a request trace
// slows the sequential miner by more than 3% — in either the
// bare-observability configuration or the serving configuration (a
// controller too, the way mintd's handlers run every request). Each
// traced run opens its own request trace, as mintd does per request. It
// runs only under `go test -bench` (any pattern): tier-1 test runs must
// never flake on machine noise, so the guard is opt-in alongside the
// benchmarks — exercised by `make bench-report`.
func TestObsOverheadGuard(t *testing.T) {
	f := flag.Lookup("test.bench")
	if f == nil || f.Value.String() == "" {
		t.Skip("overhead guard runs only under -bench (see make bench-report)")
	}
	g, m := benchInput()
	reg := obs.New("guard")
	ctl := runctl.New(context.Background(), runctl.Budget{})
	bare := func() { Mine(g, m, Options{}) }
	observed := func() { tracedMine(g, m, Options{Obs: reg}) }
	served := func() { tracedMine(g, m, Options{Obs: reg, Ctl: ctl}) }

	// Warm up caches and the scheduler, then interleave-measure.
	bare()
	observed()
	served()

	const rounds = 7
	off := minMineTime(rounds, bare)
	on := minMineTime(rounds, observed)
	traceOn := minMineTime(rounds, served)
	ratio := float64(on) / float64(off)
	traceRatio := float64(traceOn) / float64(off)
	t.Logf("obs off %v, on %v, traced %v, ratio %.4f, trace ratio %.4f", off, on, traceOn, ratio, traceRatio)
	if ratio > 1.03 {
		t.Fatalf("observability overhead %.2f%% exceeds the 3%% budget (off %v, on %v)",
			(ratio-1)*100, off, on)
	}
	if traceRatio > 1.03 {
		t.Fatalf("tracing overhead %.2f%% exceeds the 3%% budget (off %v, traced %v)",
			(traceRatio-1)*100, off, traceOn)
	}
}
