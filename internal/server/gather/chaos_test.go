package gather

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mint"
	"mint/internal/server"
	"mint/internal/testutil"
)

// TestChaosSoak3ShardLoudPartials is the scatter-gather chaos soak: a
// 3-shard cluster where one worker is killed mid-soak (its listener
// closed under live traffic) and another mines under an injected
// delay+error fault plan, while concurrent clients hammer the
// coordinator with count and enumerate traffic. The invariant — checked
// on every single response — is the merged response contract:
//
//   - 200 exact=true          → count bit-identical to the single-process
//     oracle, no partial marker
//   - 200 partial set         → truncated=true, stop reason named, bound
//     "lower", missing shards all from the configured set, count ≤ oracle
//   - 200 truncated, no partial → stop reason named, count ≤ oracle
//   - degraded                → never (root-windowed fan-out cannot reach
//     the estimator; a "mixed" merge here would be a bug)
//   - 200 enumerate           → matches a prefix of the oracle stream,
//     short pages loudly marked
//   - 429                     → Retry-After present
//   - 503                     → clean shed
//
// Anything else — a 500, an unmarked short count, a merged total that
// silently excludes the dead shard — fails the soak. Run under -race
// this also shakes the coordinator's breaker/hedge/info-cache locking.
func TestChaosSoak3ShardLoudPartials(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: multi-second concurrent soak")
	}
	g := testutil.RandomGraph(rand.New(rand.NewSource(11)), 24, 1500, 3000)
	graphs := map[string]*mint.Graph{"g": g}

	// Shard 2 mines under deterministic fault injection: delays make it a
	// straggler, errors force loud truncations.
	stallPlan, err := mint.ParseChaosPlan("seed=7,error=0.01,delay=0.3,delaydur=1ms,sites=mackey.chunk")
	if err != nil {
		t.Fatal(err)
	}
	_, healthy := newWorker(t, graphs, nil)
	_, victim := newWorker(t, graphs, nil)
	_, stalled := newWorker(t, graphs, func(cfg *server.Config) { cfg.Chaos = stallPlan })
	urls := []string{healthy.URL, victim.URL, stalled.URL}
	urlSet := map[string]bool{}
	for _, u := range urls {
		urlSet[u] = true
	}

	coord, cts := newCoordinator(t, urls, func(cfg *Config) {
		cfg.MaxAttempts = 2
		cfg.HedgeAfter = 250 * time.Millisecond
		cfg.Breaker = server.BreakerConfig{Threshold: 2, Cooldown: 200 * time.Millisecond}
		cfg.Admission = server.AdmissionConfig{MaxInflight: 4, MaxQueue: 6, MaxWait: 500 * time.Millisecond}
		cfg.Quorum = 3
	})

	// Oracles on the undisturbed engine.
	countOracle := map[string]int64{}
	for _, mn := range []string{"M1", "M2"} {
		m, err := mint.MotifByName(mn, testDelta)
		if err != nil {
			t.Fatal(err)
		}
		countOracle[mn] = mint.Count(g, m)
	}
	var enumOracle [][]int32
	mint.Enumerate(g, mint.M1(testDelta), func(edges []int32) {
		enumOracle = append(enumOracle, append([]int32(nil), edges...))
	})

	// The cluster is whole at the start: readyz at full quorum.
	if resp, err := http.Get(cts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-kill readyz: status %d, want 200", resp.StatusCode)
		}
	}

	const clients = 8
	const perClient = 12
	// The victim dies after killAfter responses, under live traffic:
	// clients that reach the threshold wait for the kill before sending
	// more, so the rest of the soak runs against the wounded cluster
	// however fast this host drains requests.
	const killAfter = clients * perClient / 3
	var completed atomic.Int64
	killNow, killed := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := map[string]int{}
	var sawVictimMissing bool
	seen := func(outcome string) {
		mu.Lock()
		outcomes[outcome]++
		mu.Unlock()
	}

	checkPartial := func(tag string, p *server.PartialInfo) {
		if p.Bound != "lower" {
			t.Errorf("%s: partial bound %q, want \"lower\"", tag, p.Bound)
		}
		if len(p.MissingShards) == 0 {
			t.Errorf("%s: partial marker with no missing shards named", tag)
		}
		for _, u := range p.MissingShards {
			if !urlSet[u] {
				t.Errorf("%s: partial names unknown shard %q", tag, u)
			}
			if u == victim.URL {
				mu.Lock()
				sawVictimMissing = true
				mu.Unlock()
			}
		}
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if completed.Load() >= killAfter {
					<-killed
				}
				mn := []string{"M1", "M2"}[(c+i)%2]
				tag := fmt.Sprintf("client %d req %d (%s)", c, i, mn)
				if (c+i)%4 == 3 { // a quarter of traffic enumerates
					var resp server.EnumerateResponse
					status, hdr := postJSON(t, cts.URL+"/v1/enumerate", server.EnumerateRequest{
						Dataset: "g", Motif: "M1", DeltaSeconds: testDelta,
						TimeoutMS: 2000, Limit: 16,
					}, &resp)
					if completed.Add(1) == killAfter {
						close(killNow)
					}
					checkShedOrOK(t, tag, status, hdr)
					if status != http.StatusOK {
						seen("shed")
						continue
					}
					seen("enumerate")
					if len(resp.Matches) > len(enumOracle) ||
						!reflect.DeepEqual(resp.Matches, enumOracle[:len(resp.Matches)]) {
						t.Errorf("%s: merged matches are not a prefix of the oracle stream", tag)
					}
					if resp.Partial != nil {
						if !resp.Truncated || resp.StopReason == "" {
							t.Errorf("%s: partial enumeration without truncation markers: %+v", tag, resp)
						}
						checkPartial(tag, resp.Partial)
					}
					if len(resp.Matches) < min(16, len(enumOracle)) && !resp.Truncated && resp.NextPageToken == "" {
						t.Errorf("%s: short page (%d) with no truncation marker and no next page", tag, len(resp.Matches))
					}
					continue
				}
				var resp server.CountResponse
				status, hdr := postJSON(t, cts.URL+"/v1/count", server.CountRequest{
					Dataset: "g", Motif: mn, DeltaSeconds: testDelta, TimeoutMS: 2000,
				}, &resp)
				if completed.Add(1) == killAfter {
					close(killNow)
				}
				checkShedOrOK(t, tag, status, hdr)
				if status != http.StatusOK {
					seen("shed")
					continue
				}
				oracle := countOracle[mn]
				if resp.Degraded {
					t.Errorf("%s: merged response degraded (engine %q) — root-windowed fan-out must never estimate", tag, resp.Engine)
				}
				switch {
				case resp.Exact:
					seen("exact")
					if resp.Partial != nil {
						t.Errorf("%s: exact=true with a partial marker: %+v", tag, resp)
					}
					if int64(resp.Count) != oracle {
						t.Errorf("%s: exact=true count=%v, oracle %d — silently wrong merge", tag, resp.Count, oracle)
					}
				case resp.Truncated:
					if resp.Partial != nil {
						seen("partial")
						checkPartial(tag, resp.Partial)
						if resp.StopReason != StopShardUnavailable {
							t.Errorf("%s: missing shards but stop reason %q", tag, resp.StopReason)
						}
					} else {
						seen("truncated")
						if resp.StopReason == "" {
							t.Errorf("%s: truncated with no stop reason", tag)
						}
					}
					if int64(resp.Count) > oracle {
						t.Errorf("%s: partial count %v exceeds oracle %d — not a lower bound", tag, resp.Count, oracle)
					}
				default:
					t.Errorf("%s: 200 with no exact/truncated marker: %+v — silently wrong", tag, resp)
				}
			}
		}(c)
	}

	// Kill the victim mid-soak, once killAfter responses are in. (A
	// client that died on t.Fatal may keep the count short; then the
	// soak has already failed and there is nothing left to kill for.)
	soakDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(soakDone)
	}()
	select {
	case <-killNow:
	case <-soakDone:
	}
	victim.Close()
	close(killed)
	wg.Wait()
	t.Logf("soak outcomes: %v", outcomes)

	if !sawVictimMissing {
		t.Error("no merged response ever named the killed shard missing; the loud-partial path was not exercised")
	}
	if outcomes["exact"]+outcomes["partial"]+outcomes["truncated"]+outcomes["enumerate"] == 0 {
		t.Error("soak produced no successful responses at all")
	}

	// The cluster is down a shard: readyz at quorum 3 must refuse.
	if resp, err := http.Get(cts.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-kill readyz: status %d, want 503 (quorum 3 of 2 healthy)", resp.StatusCode)
		}
	}

	// Graceful drain: post-drain traffic bounces cleanly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	status, _ := postJSON(t, cts.URL+"/v1/count",
		server.CountRequest{Dataset: "g", Motif: "M1", DeltaSeconds: testDelta}, nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("post-drain count: status %d, want 503", status)
	}
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
