package mackey_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mint/internal/comine"
	"mint/internal/mackey"
	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// leafCase is one trie the bulk leaf count must agree on with the
// per-match visit path.
type leafCase struct {
	name string
	trie *mackey.Trie
}

func leafCases(t *testing.T, delta temporal.Timestamp) []leafCase {
	t.Helper()
	must := func(m *temporal.Motif, err error) *temporal.Motif {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	motifs := append(temporal.EvaluationMotifs(delta),
		must(temporal.Chain(3, delta)),
		must(temporal.InStar(3, delta)),
		must(temporal.PingPong(3, delta)),
		// Two disjoint edges: the leaf scan is the unanchored one.
		must(temporal.ParseMotif("pair", delta, "0->1,2->3")),
	)
	var cases []leafCase
	for _, m := range motifs {
		cases = append(cases, leafCase{m.Name, trieOf(t, m)})
	}
	// A set with a prefix motif (chain2 ends at a node M1 and M2 pass
	// through) and a duplicated motif (two terminals on one leaf).
	cases = append(cases, leafCase{"set", trieOf(t,
		must(temporal.Chain(2, delta)), temporal.M1(delta), temporal.M2(delta), temporal.M1(delta), temporal.M4(delta))})
	return cases
}

// trieOf plans motifs (all of one δ) into their single co-mining trie.
func trieOf(t *testing.T, motifs ...*temporal.Motif) *mackey.Trie {
	t.Helper()
	plan, err := comine.PlanSet(motifs)
	if err != nil || len(plan.Groups) != 1 {
		t.Fatalf("plan: %v (%d groups)", err, len(plan.Groups))
	}
	return &plan.Groups[0].Trie
}

// workFree zeroes the counters that depend on the worker pool or, with
// several workers, on which worker mined which chunk (window-cache hits
// and misses) rather than on the mining work.
func workFree(s mackey.Stats, workers int) mackey.Stats {
	s.PoolReuse = 0
	if workers > 1 {
		s.SearchCacheHits, s.SearchCacheMisses = 0, 0
	}
	return s
}

// TestLeafCountMatchesVisit: counting a leaf scan's matches in bulk must
// report exactly what visiting each match reports — the same per-motif
// Counts, the same Shared tally and the same Stats — at one and four
// workers, for every scan shape (both endpoints bound, source bound,
// destination bound, unanchored), non-leaf terminals and duplicated
// motifs. Under a node budget the bulk path stops late by at most a
// leaf scan, so it is Truncated with a count no larger than the exact one
// (and, with one worker, short of it: the budget is half the work).
func TestLeafCountMatchesVisit(t *testing.T) {
	g := testutil.RandomGraph(rand.New(rand.NewSource(17)), 8, 2000, 2000)
	ctx := context.Background()
	for _, c := range leafCases(t, 300) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", c.name, workers), func(t *testing.T) {
				bulk, err := mackey.MineTrieCtx(ctx, g, c.trie, mackey.Options{Workers: workers}, runctl.Budget{})
				if err != nil {
					t.Fatal(err)
				}
				visit, err := mackey.MineTrieCtx(ctx, g, c.trie, mackey.Options{Workers: workers, Probe: mackey.NopProbe{}}, runctl.Budget{})
				if err != nil {
					t.Fatal(err)
				}
				if bulk.Truncated || visit.Truncated {
					t.Fatalf("unbudgeted run truncated: bulk %v, visit %v", bulk.StopReason, visit.StopReason)
				}
				if bulk.Matches == 0 {
					t.Fatal("no matches; the case would be vacuous")
				}
				if !slices.Equal(bulk.Counts, visit.Counts) || bulk.Shared != visit.Shared {
					t.Fatalf("counts %v shared %d, visit path %v shared %d", bulk.Counts, bulk.Shared, visit.Counts, visit.Shared)
				}
				if bs, vs := workFree(bulk.Stats, workers), workFree(visit.Stats, workers); bs != vs {
					t.Fatalf("stats differ:\n bulk  %+v\n visit %+v", bs, vs)
				}

				budget := runctl.Budget{MaxNodes: bulk.Stats.NodesExpanded / 2}
				if budget.MaxNodes < 2*runctl.CheckInterval {
					t.Fatalf("%d nodes expanded: too few to stop between checkpoints", bulk.Stats.NodesExpanded)
				}
				cut, err := mackey.MineTrieCtx(ctx, g, c.trie, mackey.Options{Workers: workers}, budget)
				if err != nil {
					t.Fatal(err)
				}
				if !cut.Truncated || cut.StopReason != runctl.NodeBudget {
					t.Fatalf("MaxNodes=%d: truncated=%v (%v), want a node-budget stop", budget.MaxNodes, cut.Truncated, cut.StopReason)
				}
				for i, n := range cut.Counts {
					if n > bulk.Counts[i] {
						t.Fatalf("motif %d: truncated count %d exceeds exact %d", i, n, bulk.Counts[i])
					}
				}
				if workers == 1 && cut.Matches >= bulk.Matches {
					t.Fatalf("truncated run found %d of %d matches", cut.Matches, bulk.Matches)
				}
			})
		}
	}
}
