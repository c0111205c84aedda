package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	"mint/internal/temporal"
)

// A stalled server must show up both as latency on every request queued
// behind the stall and as generator lateness: open-loop timing runs
// from the due time, not from the send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	exec := func(i int) []sample {
		s := sample{class: "count", sent: time.Now()}
		if i == 0 {
			time.Sleep(stall)
		}
		s.done = time.Now()
		return []sample{s}
	}
	ss := openLoop(1, 100, 500*time.Millisecond, exec)
	if len(ss) != 50 {
		t.Fatalf("got %d samples, want 50", len(ss))
	}
	var stalled *sample
	for i := range ss {
		if ss[i].due.Equal(ss[0].due.Add(50 * time.Millisecond)) {
			stalled = &ss[i]
		}
	}
	if stalled == nil {
		t.Fatal("no sample due 50ms after the first")
	}
	// Due 50ms in, it could not be sent before the stall ended at 200ms.
	if got := stalled.latency(); got < stall-50*time.Millisecond {
		t.Errorf("request queued behind the stall has latency %v, want at least %v", got, stall-50*time.Millisecond)
	}
	if got := stalled.late(); got < stall-60*time.Millisecond {
		t.Errorf("generator lateness %v, want about %v", got, stall-50*time.Millisecond)
	}
	if got := stalled.done.Sub(stalled.sent); got > 20*time.Millisecond {
		t.Errorf("send-to-answer %v should not include the stall", got)
	}
}

func TestClosedLoopKeepsClientsBusy(t *testing.T) {
	exec := func(i int) []sample {
		time.Sleep(10 * time.Millisecond)
		return []sample{{class: "count", sent: time.Now(), done: time.Now()}}
	}
	ss := closedLoop(2, 0, 200*time.Millisecond, exec)
	if len(ss) < 20 || len(ss) > 44 {
		t.Errorf("two clients answered %d requests of 10ms in 200ms, want about 40", len(ss))
	}
	for _, s := range ss {
		if !s.due.IsZero() {
			t.Fatal("closed-loop requests have no due time")
		}
	}
}

func TestPercentileRefusesSmallSamples(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		err  bool
	}{
		{n: 99, q: 0.9, err: true},
		{n: 100, q: 0.9, want: 90},
		{n: 19, q: 0.5, err: true},
		{n: 20, q: 0.5, want: 10},
		{n: 1000, q: 0.99, want: 990},
		{n: 999, q: 0.99, err: true},
	} {
		got, err := percentile(xs(tc.n), tc.q)
		if tc.err {
			if !errors.Is(err, errSmallSample) {
				t.Errorf("p%v of %d samples: err %v, want errSmallSample", tc.q*100, tc.n, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", tc.q*100, tc.n, got, err, tc.want)
		}
	}
	m := newMetrics()
	m.pct("count_p90_ms", xs(50), 0.9)
	if !errors.Is(m.err, errSmallSample) {
		t.Errorf("metrics.pct on 50 samples: err %v, want errSmallSample", m.err)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "count p50", "count/p50", "_lead", "x{y}"} {
		m := newMetrics()
		m.set(bad, "ms", 1)
		if m.err == nil {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for _, e := range doc.EndToEnd {
		names = append(names, e.Name)
	}
	for _, e := range doc.PerLayer {
		names = append(names, e.Name)
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("BENCHMARK.json name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("BENCHMARK.json name %q used twice", n)
		}
		seen[n] = true
	}
}

// Every seed sends the same multiset of work per round, and heavy
// operations and ingest batches never sit side by side.
func TestSequenceSeedMovesOrderNotMix(t *testing.T) {
	ntmpl := map[string]int{"count": 6, "batch": 2, "enum": 2, "ingest": 3}
	heavy := []op{{class: "count", tmpl: 4}, {class: "count", tmpl: 5}, {class: "batch", tmpl: 1}}
	n := 6 + 2 + 2 + 3
	var rounds [][]op
	for seed := int64(1); seed <= 2; seed++ {
		seq := buildSequence(rand.New(rand.NewSource(seed)), ntmpl, heavy, 3)
		if len(seq) != 3*n {
			t.Fatalf("seed %d: %d ops, want %d", seed, len(seq), 3*n)
		}
		for i := 1; i < len(seq); i++ {
			if spread(seq[i-1], heavy) && spread(seq[i], heavy) {
				t.Errorf("seed %d: heavy ops side by side at %d", seed, i)
			}
		}
		rounds = append(rounds, seq[:n])
	}
	count := func(r []op) map[op]int {
		m := map[op]int{}
		for _, o := range r {
			m[o]++
		}
		return m
	}
	a, b := count(rounds[0]), count(rounds[1])
	if len(a) != len(b) {
		t.Fatalf("rounds differ in mix: %v vs %v", a, b)
	}
	for o, k := range a {
		if b[o] != k {
			t.Errorf("op %v: %d vs %d per round", o, k, b[o])
		}
	}
}

func spread(o op, heavy []op) bool {
	if o.class == "ingest" {
		return true
	}
	for _, h := range heavy {
		if h == o {
			return true
		}
	}
	return false
}

// The live model keeps exactly the edges at or after newest−window,
// including edges that arrive already older than the cutoff.
func TestLiveModelWindow(t *testing.T) {
	m := &liveModel{window: 10}
	m.apply([]temporal.Edge{{Src: 0, Dst: 1, Time: 0}, {Src: 1, Dst: 2, Time: 5}})
	m.apply([]temporal.Edge{{Src: 2, Dst: 0, Time: 12}, {Src: 0, Dst: 2, Time: 1}})
	if len(m.edges) != 2 || m.edges[0].Time != 5 || m.edges[1].Time != 12 {
		t.Errorf("live edges %v, want times 5 and 12", m.edges)
	}
	m.apply([]temporal.Edge{{Src: 1, Dst: 0, Time: 8}})
	if len(m.edges) != 3 {
		t.Errorf("an out-of-order edge inside the window was dropped: %v", m.edges)
	}
}
