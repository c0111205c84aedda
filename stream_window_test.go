package mint

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"mint/internal/testutil"
)

// windowModel is the live set the way the stream kept it before the
// sorted window: every accepted edge in append order, evicted by the same
// cutoff rule. Graphs and fingerprints are checked against it.
type windowModel struct {
	window  Timestamp
	edges   []Edge
	maxTime Timestamp
	hasMax  bool
	cutoff  Timestamp
	hasCut  bool
}

func (m *windowModel) apply(batch []Edge) {
	for _, e := range batch {
		if !m.hasMax || e.Time > m.maxTime {
			m.maxTime, m.hasMax = e.Time, true
		}
	}
	if m.window > 0 && m.hasMax {
		if c := m.maxTime - m.window; !m.hasCut || c > m.cutoff {
			m.cutoff, m.hasCut = c, true
		}
	}
	kept := m.edges[:0:0]
	for _, e := range append(m.edges, batch...) {
		if !m.hasCut || e.Time >= m.cutoff {
			kept = append(kept, e)
		}
	}
	m.edges = kept
}

// fingerprint hashes the model's live set from scratch in graph order.
func (m *windowModel) fingerprint() string {
	sorted := slices.Clone(m.edges)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	var h liveHash
	h.reset(sorted)
	return fmt.Sprintf("live/%d/%016x", len(sorted), h.h)
}

// randomHistory draws batches whose times drift upward from a negative
// start with coarse ties; about one batch in five reaches back before the
// newest edge (out of order, partly below the cutoff). The node-id range
// grows and shrinks across phases, so eviction also shrinks NumNodes.
func randomHistory(rng *rand.Rand, batches int) [][]Edge {
	var out [][]Edge
	now := Timestamp(-400)
	for b := 0; b < batches; b++ {
		nodes := 3 + (b/10%4)*6
		batch := make([]Edge, 1+rng.Intn(12))
		back := Timestamp(0)
		if rng.Intn(5) == 0 {
			back = Timestamp(20 + rng.Intn(150))
		}
		for i := range batch {
			batch[i] = Edge{
				Src:  NodeID(rng.Intn(nodes)),
				Dst:  NodeID(rng.Intn(nodes)),
				Time: now - back + Timestamp(rng.Intn(4)*5),
			}
		}
		out = append(out, batch)
		now += Timestamp(rng.Intn(25))
	}
	return out
}

// TestStreamWindowMatchesListLayout drives random histories through the
// stream and checks after every append that the live graph is
// bit-identical to the list layout over the append-order live set, that
// the ack and Info carry the incremental fingerprint, and that it equals
// a from-scratch hash. The fingerprint must then survive snapshot
// restore (reopen) and follower bootstrap (install + ship the tail), also
// from a snapshot in the older append-order form.
func TestStreamWindowMatchesListLayout(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			reg := NewObsRegistry("window_test")
			opts := StreamOptions{Window: Timestamp(60 + rng.Intn(200)), SnapshotEvery: 7, SyncEvery: -1, Obs: reg}
			s, _, err := OpenStream(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Register(context.Background(), "m1", M1(40)); err != nil {
				t.Fatal(err)
			}
			model := &windowModel{window: opts.Window}
			for i, batch := range randomHistory(rng, 120) {
				res := streamAppend(t, s, uint64(i+1), batch)
				model.apply(batch)
				g, err := s.Graph()
				if err != nil {
					t.Fatal(err)
				}
				if err := testutil.CheckListLayout(g, model.edges); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				want := model.fingerprint()
				if res.Fingerprint != want || res.Edges != len(model.edges) {
					t.Fatalf("append %d: ack (%d, %s), want (%d, %s)", i, res.Edges, res.Fingerprint, len(model.edges), want)
				}
				if info := s.Info(); info.Fingerprint != want {
					t.Fatalf("append %d: Info fingerprint %s, want %s", i, info.Fingerprint, want)
				}
			}
			if reg.Counter("stream.out_of_order").Value() == 0 {
				t.Fatal("history had no out-of-order merge")
			}
			final := s.Info()

			// Follower bootstrap from the newest snapshot, in its stored
			// (graph) order and in the older append order.
			snap, err := s.LoadSnapshot()
			if err != nil || snap == nil {
				t.Fatalf("LoadSnapshot: %v, %v", snap, err)
			}
			tail, _, err := s.ReadRecords(snap.Seq+1, 0)
			if err != nil {
				t.Fatal(err)
			}
			// An append order whose stable sort is graph order: the tie
			// groups in reverse, each group in its own order.
			var legacy []Edge
			for hi := len(snap.Edges); hi > 0; {
				lo := hi - 1
				for lo > 0 && snap.Edges[lo-1].Time == snap.Edges[hi-1].Time {
					lo--
				}
				legacy = append(legacy, snap.Edges[lo:hi]...)
				hi = lo
			}
			for name, edges := range map[string][]Edge{"graph order": snap.Edges, "append order": legacy} {
				f, _, err := OpenStream(t.TempDir(), StreamOptions{Window: opts.Window})
				if err != nil {
					t.Fatal(err)
				}
				inst := *snap
				inst.Edges = edges
				if err := f.InstallSnapshot(&inst); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, r := range tail {
					if err := f.ApplyReplicated(r); err != nil {
						t.Fatalf("%s: apply seq %d: %v", name, r.Seq, err)
					}
				}
				if got := f.Info(); got.Fingerprint != final.Fingerprint || got.Seq != final.Seq {
					t.Fatalf("%s bootstrap: %+v, want %+v", name, got, final)
				}
				f.Close()
			}

			// Snapshot restore: reopen replays the snapshot plus the tail.
			s.Close()
			s2, _, err := OpenStream(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if got := s2.Info(); got.Fingerprint != final.Fingerprint || got.Seq != final.Seq {
				t.Fatalf("reopen: %+v, want %+v", got, final)
			}
		})
	}
}

// TestStreamOldViewStableUnderAppends: a graph taken from the stream is an
// immutable view. A reader keeps mining it while in-order, out-of-order
// and evicting appends continue; its edges and count never change (and
// -race sees no write to the array it shares with the live window).
func TestStreamOldViewStableUnderAppends(t *testing.T) {
	s, _, err := OpenStream(t.TempDir(), StreamOptions{Window: 150, SnapshotEvery: 5, SyncEvery: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	hist := randomHistory(rng, 200)
	for i, batch := range hist[:60] {
		streamAppend(t, s, uint64(i+1), batch)
	}
	view, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	edges := slices.Clone(view.Edges)
	m := M1(40)
	want := Count(view, m)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, batch := range hist[60:] {
			if _, err := s.Append(context.Background(), "test", uint64(61+i), batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := want
	for running := true; running && got == want; {
		select {
		case <-done:
			running = false
		default:
		}
		got = Count(view, m)
	}
	<-done
	if got != want {
		t.Fatalf("old view's count moved from %d to %d", want, got)
	}
	if !slices.Equal(view.Edges, edges) {
		t.Fatal("old view's edges changed under appends")
	}
}

// TestStreamAppendAllocsFlat is the scaling gate for the ingest ack path:
// with standing M1–M3 folded on every append, an in-order batch costs the
// same number of allocations with 20k and 200k live edges — no per-node
// or per-edge allocation is left. The median over single appends drops
// the rare append that grows the window's backing array, or refills a
// mining worker after a GC emptied its sync.Pool.
func TestStreamAppendAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-edge window")
	}
	if raceEnabled {
		// Under -race, sync.Pool drops a quarter of all Puts at random,
		// so most appends refill a mining worker (acquireWorker's
		// mapping arrays, window cache and count cells) and the median
		// is a draw from the refill count: single appends read 141–174
		// at either window size, over a floor of 141 that both sizes
		// share.
		t.Skip("sync.Pool drops pooled workers at random under -race")
	}
	median := func(live int) uint64 {
		s, _, err := OpenStream(t.TempDir(), StreamOptions{
			Window: Timestamp(live), SnapshotEvery: -1, SyncEvery: -1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rng := rand.New(rand.NewSource(3))
		// The node count grows with the window, as it does on real
		// streams, so per-node work would show.
		nodes, batch := live/4, 64
		next := Timestamp(0)
		gen := func(size int) []Edge {
			b := make([]Edge, size)
			for i := range b {
				b[i] = Edge{Src: NodeID(rng.Intn(nodes)), Dst: NodeID(rng.Intn(nodes)), Time: next}
				next++
			}
			return b
		}
		seq := uint64(0)
		for next < Timestamp(live) {
			seq++
			streamAppend(t, s, seq, gen(20_000))
		}
		for _, m := range EvaluationMotifs(600)[:3] {
			if _, err := s.Register(context.Background(), m.Name, m); err != nil {
				t.Fatal(err)
			}
		}
		var samples []uint64
		var before, after runtime.MemStats
		for i := 0; i < 25; i++ {
			seq++
			b := gen(batch)
			runtime.ReadMemStats(&before)
			streamAppend(t, s, seq, b)
			runtime.ReadMemStats(&after)
			samples = append(samples, after.Mallocs-before.Mallocs)
		}
		if info := s.Info(); info.Edges < live*9/10 {
			t.Fatalf("window holds %d edges, want about %d", info.Edges, live)
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	small, large := median(20_000), median(200_000)
	t.Logf("median allocs per in-order append: %d at 20k live edges, %d at 200k", small, large)
	if small != large {
		t.Fatalf("allocs per append grow with the window: %d at 20k, %d at 200k", small, large)
	}
}
