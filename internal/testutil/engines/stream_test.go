package engines

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mint"
	"mint/internal/faultinject"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// The streaming differential matrix: after ANY sequence of batched
// appends, every registered standing-query count must be bit-identical
// to a cold full mine of the live graph — M1–M4 × 3 δ, with and without
// sliding-window eviction, and under injected faults (where counts may
// go loudly stale but never wrong). This is the incremental-maintenance
// equivalence stream.go claims from the root-window partition property;
// these tests are its enforcement.

// streamScenario is one input of the streaming matrix.
type streamScenario struct {
	name   string
	edges  []temporal.Edge
	deltas []temporal.Timestamp
	window temporal.Timestamp // 0 = no eviction
	batch  int
}

func streamScenarios(short bool) []streamScenario {
	out := []streamScenario{
		{
			name:   "rand-sparse",
			edges:  testutil.RandomGraph(rand.New(rand.NewSource(7)), 24, 160, 4000).Edges,
			deltas: []temporal.Timestamp{150, 600, 2000},
			batch:  13,
		},
	}
	if short {
		return out
	}
	out = append(out,
		streamScenario{
			name:   "rand-dense",
			edges:  testutil.RandomGraph(rand.New(rand.NewSource(13)), 12, 220, 2500).Edges,
			deltas: []temporal.Timestamp{100, 400, 1200},
			batch:  17,
		},
		streamScenario{
			name:   "rand-evicting",
			edges:  testutil.RandomGraph(rand.New(rand.NewSource(29)), 14, 200, 3000).Edges,
			deltas: []temporal.Timestamp{120, 500, 1500},
			window: 900,
			batch:  11,
		},
	)
	return out
}

// shuffleBatches cuts edges into batches and mildly shuffles WITHIN each
// batch, so arrival order disagrees with timestamp order (the tie-break
// and out-of-order paths get exercised) while the batch sequence itself
// stays deterministic.
func shuffleBatches(edges []temporal.Edge, batch int, seed int64) [][]temporal.Edge {
	rng := rand.New(rand.NewSource(seed))
	var out [][]temporal.Edge
	for i := 0; i < len(edges); i += batch {
		end := i + batch
		if end > len(edges) {
			end = len(edges)
		}
		b := append([]temporal.Edge(nil), edges[i:end]...)
		rng.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
		out = append(out, b)
	}
	return out
}

// TestDifferentialStreamingCounts drives the full matrix: register
// M1–M4 at three δ each (12 standing queries), append the edge stream in
// shuffled batches, and at checkpoints compare every standing count to a
// cold full mine of the live graph. At the end, reopen the WAL directory
// cold and require the replayed graph to count identically — the
// differential gate of the issue.
func TestDifferentialStreamingCounts(t *testing.T) {
	for _, sc := range streamScenarios(testing.Short()) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := mint.OpenStream(dir, mint.StreamOptions{
				Workers:       2,
				Window:        sc.window,
				SnapshotEvery: 5,
				SegmentBytes:  4096,
			})
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			defer s.Close()

			type sq struct {
				name  string
				motif *temporal.Motif
			}
			var sqs []sq
			for _, delta := range sc.deltas {
				for _, m := range temporal.EvaluationMotifs(delta) {
					sqs = append(sqs, sq{fmt.Sprintf("%s@%d", m.Name, delta), m})
				}
			}
			for _, q := range sqs {
				if _, err := s.Register(context.Background(), q.name, q.motif); err != nil {
					t.Fatalf("Register %s: %v", q.name, err)
				}
			}

			batches := shuffleBatches(sc.edges, sc.batch, 99)
			check := func(stage string) {
				t.Helper()
				live, err := s.Graph()
				if err != nil {
					t.Fatalf("%s: Graph: %v", stage, err)
				}
				standing := s.Standing()
				byName := map[string]mint.StandingCount{}
				for _, st := range standing {
					byName[st.Name] = st
				}
				for _, q := range sqs {
					st := byName[q.name]
					if st.Stale {
						t.Fatalf("%s: %s went stale without faults: %s", stage, q.name, st.Reason)
					}
					if want := mint.Count(live, q.motif); st.Count != want {
						t.Fatalf("%s: %s standing=%d cold=%d", stage, q.name, st.Count, want)
					}
				}
			}

			for i, b := range batches {
				if _, err := s.Append(context.Background(), "diff", uint64(i+1), b); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
				// Checking every batch is O(batches × motifs × mine); thin
				// it out but always check the first few and the last.
				if i < 3 || i == len(batches)-1 || i%7 == 0 {
					check(fmt.Sprintf("batch %d", i))
				}
			}
			check("final")
			finalInfo := s.Info()
			live, _ := s.Graph()
			s.Close()

			// Cold restart: replay the WAL and require bit-identical counts
			// to the pre-restart live graph. Registrations are durable WAL
			// records now, so the board restores (and reseeds) itself — a
			// re-register must refuse as a duplicate, not silently reset.
			s2, rec, err := mint.OpenStream(dir, mint.StreamOptions{
				Workers: 2,
				Window:  sc.window,
			})
			if err != nil {
				t.Fatalf("cold reopen: %v", err)
			}
			defer s2.Close()
			if rec.Truncated {
				t.Fatalf("clean shutdown replayed as truncated: %s", rec.Detail)
			}
			if got := s2.Info(); got.Fingerprint != finalInfo.Fingerprint {
				t.Fatalf("cold fingerprint %s != live %s", got.Fingerprint, finalInfo.Fingerprint)
			}
			restored := map[string]mint.StandingCount{}
			for _, st := range s2.Standing() {
				restored[st.Name] = st
			}
			for _, q := range sqs {
				st, ok := restored[q.name]
				if !ok {
					t.Fatalf("cold reopen lost standing query %s", q.name)
				}
				if st.Stale {
					t.Fatalf("cold-restored %s stale: %s", q.name, st.Reason)
				}
				if want := mint.Count(live, q.motif); st.Count != want {
					t.Fatalf("cold %s = %d, live mine = %d", q.name, st.Count, want)
				}
				if _, err := s2.Register(context.Background(), q.name, q.motif); err == nil {
					t.Fatalf("re-registering restored %s did not refuse", q.name)
				}
			}
		})
	}
}

// TestStreamingStaleNeverWrong floods the integration path with injected
// engine faults: standing counts are then allowed to go STALE (loudly,
// with a reason) but each reported value must still equal the cold count
// of the graph at the seq it claims (StandingCount.Seq) — stale-but-
// right, never fresh-but-wrong. A chaos-free cold reopen then recovers
// exact counts from the same WAL.
func TestStreamingStaleNeverWrong(t *testing.T) {
	edges := testutil.RandomGraph(rand.New(rand.NewSource(17)), 10, 120, 1500).Edges
	plan := faultinject.New(5, 0, 0, 0.35, 0, 0)
	plan.RestrictSites("mackey.chunk")
	dir := t.TempDir()
	s, _, err := mint.OpenStream(dir, mint.StreamOptions{Workers: 2, Chaos: plan})
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer s.Close()

	delta := temporal.Timestamp(400)
	motifs := temporal.EvaluationMotifs(delta)
	registered := map[string]*temporal.Motif{}
	for _, m := range motifs {
		if _, err := s.Register(context.Background(), m.Name, m); err != nil {
			// The register-time mine itself can catch a fault; that is a
			// loud refusal, which is fine — just skip the query.
			continue
		}
		registered[m.Name] = m
	}
	if len(registered) == 0 {
		t.Skip("chaos plan refused every registration; nothing to test")
	}

	// history[seq] = cold count per registered motif of the graph as of
	// that seq, recorded as we go so stale values can be checked against
	// the snapshot they claim.
	history := map[uint64]map[string]int64{}
	record := func(seq uint64) {
		live, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		h := map[string]int64{}
		for name, m := range registered {
			h[name] = mint.Count(live, m)
		}
		history[seq] = h
	}
	// Registrations are durable WAL records now, so each one consumed a
	// sequence number; a query seeded at registration claims that seq.
	// The graph was empty through all of them.
	for seq := uint64(0); seq <= s.Info().Seq; seq++ {
		record(seq)
	}

	sawStale := false
	for i := 0; i < len(edges); i += 15 {
		end := i + 15
		if end > len(edges) {
			end = len(edges)
		}
		res, err := s.Append(context.Background(), "chaos", uint64(i/15+1), edges[i:end])
		if err != nil {
			t.Fatalf("append under comine-restricted chaos must stay durable: %v", err)
		}
		record(res.Seq)
		for _, st := range s.Standing() {
			want, ok := history[st.Seq][st.Name]
			if !ok {
				t.Fatalf("standing %s claims unknown seq %d", st.Name, st.Seq)
			}
			if st.Count != want {
				t.Fatalf("standing %s at seq %d = %d, cold mine of that seq = %d (stale=%v)",
					st.Name, st.Seq, st.Count, want, st.Stale)
			}
			if st.Stale {
				sawStale = true
				if st.Reason == "" {
					t.Fatalf("stale without a reason: %+v", st)
				}
			}
		}
	}
	if !sawStale {
		t.Logf("note: no integration was hit by the plan this seed; soundness still verified")
	}
	live, _ := s.Graph()
	s.Close()

	// Chaos-free recovery from the same WAL: the durably-registered board
	// restores itself and reseeds exact.
	s2, _, err := mint.OpenStream(dir, mint.StreamOptions{Workers: 2})
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer s2.Close()
	recovered := map[string]mint.StandingCount{}
	for _, st := range s2.Standing() {
		recovered[st.Name] = st
	}
	for name, m := range registered {
		st, ok := recovered[name]
		if !ok {
			t.Fatalf("clean reopen lost standing query %s", name)
		}
		if st.Stale {
			t.Fatalf("recovered %s stale without chaos: %s", name, st.Reason)
		}
		if want := mint.Count(live, m); st.Count != want {
			t.Fatalf("recovered %s = %d, want %d", name, st.Count, want)
		}
	}
}
