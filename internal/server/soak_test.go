package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mint"
	"mint/internal/obs"
	"mint/internal/testutil"
)

// TestSoakNeverSilentlyWrong is the serving-layer chaos soak: many
// concurrent clients fire mixed count/enumerate/profile traffic at a
// deliberately tiny server (2 slots, 2-deep queue, flappy breaker) with
// fault injection live in the exact engine. The invariant under test is
// the package's response contract, checked on every single response:
//
//   - 200 with exact=true        → the count equals the oracle, bit for bit
//   - 200 with degraded=true     → the engine is named (presto)
//   - 200 with truncated=true    → the stop reason is named, count ≤ oracle
//   - 200 enumerate              → matches are a prefix of the oracle's
//     deterministic enumeration order
//   - 429                        → Retry-After present and positive
//   - 503                        → clean shed (drain/queue), body has error
//
// Anything else — a 500, an unmarked partial count, an invented match —
// fails the soak. Run under -race this also shakes the admission,
// breaker, and registry locking.
func TestSoakNeverSilentlyWrong(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-second concurrent soak")
	}
	// No sites restriction: rate faults must reach every engine site
	// (mackey.*, which the batch co-miner runs on too). Lifting
	// the old "sites=mackey" prefix leaves mackey-site decisions
	// unchanged — the prefix only gates, it does not seed the hash.
	plan, err := mint.ParseChaosPlan("seed=7,panic=0.05,error=0.50,delay=0.50,delaydur=2ms")
	if err != nil {
		t.Fatal(err)
	}
	// g1 is deliberately bigger than the degraded path's one-quantum
	// exact budget, so breaker-open traffic really lands on the PRESTO
	// estimator instead of quietly finishing exactly.
	graphs := map[string]*mint.Graph{
		"g1": testutil.RandomGraph(rand.New(rand.NewSource(11)), 64, 6000, 4000),
		"g2": testutil.RandomGraph(rand.New(rand.NewSource(2)), 12, 150, 1500),
	}
	_, ts, _ := newTestServer(t, func(cfg *Config) {
		cfg.Loader = graphLoader(graphs)
		cfg.Chaos = plan
		cfg.Admission = AdmissionConfig{MaxInflight: 2, MaxQueue: 4, MaxWait: 250 * time.Millisecond}
		cfg.Breaker = BreakerConfig{Threshold: 2, Cooldown: 150 * time.Millisecond}
		cfg.Obs = obs.New("mintd") // so the post-soak /metrics scrape has real series to lint
	})

	// Oracles, computed once up front on the undisturbed engines.
	countOracle := map[string]int64{}
	enumOracle := map[string][][]int32{}
	for name, g := range graphs {
		for _, mn := range []string{"M1", "M2"} {
			m, err := mint.MotifByName(mn, testDelta)
			if err != nil {
				t.Fatal(err)
			}
			countOracle[name+"/"+mn] = mint.Count(g, m)
		}
		m := mint.M1(testDelta)
		var all [][]int32
		mint.Enumerate(g, m, func(edges []int32) {
			all = append(all, append([]int32(nil), edges...))
		})
		enumOracle[name] = all
	}
	datasets := []string{"g1", "g2"}
	motifs := []string{"M1", "M2"}
	priorities := []string{"low", "normal", "high"}

	const clients = 12
	const perClient = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	outcomes := map[string]int{}
	seen := func(status int, outcome string) {
		mu.Lock()
		statuses[status]++
		outcomes[outcome]++
		mu.Unlock()
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ds := datasets[(c+i)%len(datasets)]
				mn := motifs[(c*3+i)%len(motifs)]
				pri := priorities[(c+2*i)%len(priorities)]
				tag := fmt.Sprintf("client %d req %d (%s/%s pri=%s)", c, i, ds, mn, pri)
				switch (c + i) % 4 {
				case 1: // batch count: the co-mined multi-motif path
					var resp CountResponse
					status, hdr := postJSON(t, ts.URL+"/v1/count", CountRequest{
						Dataset: ds, Motifs: []string{"M1", "M2"}, DeltaSeconds: testDelta,
						TimeoutMS: 2000, Priority: pri,
					}, &resp)
					checkShedOrOK(t, tag, status, hdr)
					if status != http.StatusOK {
						seen(status, "shed")
						continue
					}
					seen(status, "batch")
					if resp.Degraded {
						t.Errorf("%s: batch response degraded (engine %q) — batches have no estimator", tag, resp.Engine)
					}
					if resp.TraceID == "" {
						t.Errorf("%s: batch response missing trace id", tag)
					}
					if len(resp.PerMotif) != 2 {
						t.Errorf("%s: batch answered %d entries, want 2", tag, len(resp.PerMotif))
						continue
					}
					if resp.Truncated && resp.StopReason == "" {
						t.Errorf("%s: truncated batch with no stop reason", tag)
					}
					anyTrunc := false
					for j, e := range resp.PerMotif {
						oracle := countOracle[ds+"/"+[]string{"M1", "M2"}[j]]
						switch {
						case e.Truncated:
							anyTrunc = true
							if e.StopReason == "" {
								t.Errorf("%s: truncated entry %s with no stop reason", tag, e.Motif)
							}
							if e.Count > oracle {
								t.Errorf("%s: truncated %s = %d exceeds oracle %d", tag, e.Motif, e.Count, oracle)
							}
						default:
							if e.Count != oracle {
								t.Errorf("%s: unmarked %s = %d, oracle %d — silently wrong", tag, e.Motif, e.Count, oracle)
							}
						}
					}
					if anyTrunc && !resp.Truncated {
						t.Errorf("%s: truncated entries under an untruncated top-level response: %+v", tag, resp)
					}
					if resp.Exact && anyTrunc {
						t.Errorf("%s: exact=true with truncated entries", tag)
					}
				case 0: // single-motif count
					var resp CountResponse
					status, hdr := postJSON(t, ts.URL+"/v1/count", CountRequest{
						Dataset: ds, Motif: mn, DeltaSeconds: testDelta,
						TimeoutMS: 2000, Priority: pri,
					}, &resp)
					checkShedOrOK(t, tag, status, hdr)
					if status != http.StatusOK {
						seen(status, "shed")
						continue
					}
					oracle := countOracle[ds+"/"+mn]
					switch {
					case resp.Exact:
						seen(status, "exact")
						if int64(resp.Count) != oracle {
							t.Errorf("%s: exact=true count=%v, oracle %d — silently wrong", tag, resp.Count, oracle)
						}
					case resp.Degraded:
						seen(status, "degraded")
						if resp.Engine != mint.EnginePresto {
							t.Errorf("%s: degraded=true with engine %q", tag, resp.Engine)
						}
					case resp.Truncated:
						seen(status, "truncated")
						if resp.StopReason == "" {
							t.Errorf("%s: truncated with no stop reason", tag)
						}
						if int64(resp.Count) > oracle {
							t.Errorf("%s: partial count %v exceeds oracle %d", tag, resp.Count, oracle)
						}
					default:
						t.Errorf("%s: 200 with no exact/degraded/truncated marker: %+v — silently wrong", tag, resp)
					}
				case 2: // enumerate, always from the first page
					var resp EnumerateResponse
					status, hdr := postJSON(t, ts.URL+"/v1/enumerate", EnumerateRequest{
						Dataset: ds, Motif: "M1", DeltaSeconds: testDelta,
						TimeoutMS: 2000, Priority: pri, Limit: 16,
					}, &resp)
					checkShedOrOK(t, tag, status, hdr)
					if status != http.StatusOK {
						seen(status, "shed")
						continue
					}
					seen(status, "enumerate")
					want := enumOracle[ds]
					if len(resp.Matches) > len(want) {
						t.Errorf("%s: %d matches, oracle only has %d", tag, len(resp.Matches), len(want))
						continue
					}
					if !reflect.DeepEqual(resp.Matches, want[:len(resp.Matches)]) {
						t.Errorf("%s: matches are not a prefix of the oracle enumeration", tag)
					}
					if resp.Truncated && resp.StopReason == "" {
						t.Errorf("%s: truncated enumeration with no stop reason", tag)
					}
					if len(resp.Matches) < min(16, len(want)) && !resp.Truncated && resp.NextPageToken == "" {
						t.Errorf("%s: short page (%d/%d) with no truncation marker and no next page",
							tag, len(resp.Matches), min(16, len(want)))
					}
				default: // profile
					var resp ProfileResponse
					status, hdr := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{
						Dataset: ds, DeltaSeconds: testDelta, TimeoutMS: 2000, Priority: pri,
					}, &resp)
					checkShedOrOK(t, tag, status, hdr)
					if status != http.StatusOK {
						seen(status, "shed")
						continue
					}
					seen(status, "profile")
					for _, e := range resp.Profile {
						oracle, ok := countOracle[ds+"/"+e.Motif]
						if !ok {
							continue // only M1/M2 oracles precomputed
						}
						if !e.Truncated && e.Count != oracle {
							t.Errorf("%s: profile %s = %d unmarked, oracle %d", tag, e.Motif, e.Count, oracle)
						}
						if e.Truncated && e.StopReason == "" {
							t.Errorf("%s: truncated profile row with no stop reason", tag)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("soak statuses: %v outcomes: %v", statuses, outcomes)
	if statuses[http.StatusOK] == 0 {
		t.Error("soak produced no successful responses at all; the server shed everything")
	}
	// 12 simultaneous clients against 2 slots + a 4-deep queue must shed
	// some of the opening burst; a soak that never sheds tested nothing.
	if statuses[http.StatusTooManyRequests]+statuses[http.StatusServiceUnavailable] == 0 {
		t.Error("soak never shed; admission bounds were not exercised")
	}

	// After the chaos traffic: the metrics the soak produced — shed
	// counters, breaker flips, per-workload labels, latency histograms —
	// must still render as valid Prometheus exposition text.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.LintPrometheus(sb.String())
	if err != nil {
		t.Errorf("post-soak /metrics fails exposition lint: %v", err)
	}
	t.Logf("post-soak /metrics: %d samples, lint clean", samples)
}

// checkShedOrOK asserts the status is one of the contract's clean codes
// and that shed responses carry their Retry-After.
func checkShedOrOK(t *testing.T, tag string, status int, hdr http.Header) {
	t.Helper()
	switch status {
	case http.StatusOK, http.StatusServiceUnavailable:
	case http.StatusTooManyRequests:
		if hdr.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", tag)
		}
	default:
		t.Errorf("%s: status %d; contract allows only 200/429/503", tag, status)
	}
}
