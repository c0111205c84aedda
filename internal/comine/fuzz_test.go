package comine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mint/internal/mackey"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// FuzzMotifSetPlan fuzzes the planner on arbitrary motif lists —
// duplicates, singletons, prefixes of each other, disjoint shapes,
// mixed δ. Whatever the input, PlanSet must never panic, and any plan
// it accepts must partition the input indexes exactly (every motif
// terminal at exactly one trie node). For small plans the co-mined
// walk is cross-checked against per-motif oracle runs on a fixed tiny
// graph, singleton groups included.
func FuzzMotifSetPlan(f *testing.F) {
	f.Add("0->1,1->2,2->0|0->1,1->2,0->2", uint8(0))
	f.Add("0->1|0->1|0->1,1->2", uint8(1)) // dups + prefix
	f.Add("0->1,2->3", uint8(2))           // disconnected
	f.Add("0->1,1->2,2->3,3->0|0->1,0->2,0->3,0->4", uint8(3))
	f.Add("A->B;B->C|A->B", uint8(255)) // letter syntax, mixed δ
	f.Add("", uint8(0))
	f.Add("0->0|garbage", uint8(7))

	rng := rand.New(rand.NewSource(1))
	g := testutil.RandomGraph(rng, 8, 40, 100)

	f.Fuzz(func(t *testing.T, specs string, deltaSel uint8) {
		var motifs []*temporal.Motif
		for i, spec := range strings.Split(specs, "|") {
			// Two δ values driven by the selector bits, so fuzzed sets
			// routinely span multiple groups.
			delta := temporal.Timestamp(40)
			if deltaSel&(1<<(uint(i)%8)) != 0 {
				delta = 90
			}
			m, err := temporal.ParseMotif(fmt.Sprintf("f%d", i), delta, spec)
			if err != nil {
				continue // invalid spec: planner never sees it
			}
			motifs = append(motifs, m)
		}

		plan, err := PlanSet(motifs) // must not panic, ever
		if err != nil {
			t.Fatalf("PlanSet rejected valid motifs: %v", err)
		}

		// Partition invariant: each input index terminal exactly once.
		seen := make([]int, len(motifs))
		var walk func(nd *mackey.Node, depth int)
		walk = func(nd *mackey.Node, depth int) {
			if nd.Depth != depth {
				t.Fatalf("trie node depth %d at actual depth %d", nd.Depth, depth)
			}
			for _, idx := range nd.Terminal {
				if idx < 0 || idx >= len(motifs) {
					t.Fatalf("terminal index %d out of range", idx)
				}
				if len(motifs[idx].Edges) != depth {
					t.Fatalf("motif %d (%d edges) terminal at depth %d", idx, len(motifs[idx].Edges), depth)
				}
				seen[idx]++
			}
			for _, c := range nd.Children {
				walk(c, depth+1)
			}
		}
		members := 0
		for _, grp := range plan.Groups {
			walk(grp.Root, 0)
			members += len(grp.Members)
			for _, mem := range grp.Members {
				if mem.Motif.Delta != grp.Delta {
					t.Fatalf("motif %d (δ=%d) grouped under δ=%d", mem.Index, mem.Motif.Delta, grp.Delta)
				}
			}
			if grp.TrieEdges > grp.TotalEdges {
				t.Fatalf("trie larger than its members: %d > %d", grp.TrieEdges, grp.TotalEdges)
			}
		}
		for idx, k := range seen {
			if k != 1 {
				t.Fatalf("motif %d terminal at %d trie nodes, want 1 (specs=%q sel=%d)", idx, k, specs, deltaSel)
			}
		}
		if members != len(motifs) {
			t.Fatalf("plan holds %d members for %d motifs", members, len(motifs))
		}

		// Small plans: executor equivalence on the tiny fixed graph.
		// Singleton groups take the devolution path inside MineCtx.
		if len(motifs) == 0 || len(motifs) > 4 {
			return
		}
		for _, m := range motifs {
			if m.NumEdges() > 4 {
				return
			}
		}
		res, err := MineCtx(context.Background(), g, plan, Options{Workers: 1}, runctl.Budget{})
		if err != nil {
			t.Fatalf("MineCtx: %v", err)
		}
		for i, m := range motifs {
			want := mackey.Mine(g, m, mackey.Options{}).Matches
			if res.PerMotif[i].Matches != want {
				t.Fatalf("motif %d (%s δ=%d): co-mined %d, oracle %d (specs=%q sel=%d)",
					i, m.String(), m.Delta, res.PerMotif[i].Matches, want, specs, deltaSel)
			}
		}
	})
}
