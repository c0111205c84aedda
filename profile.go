package mint

import (
	"context"
	"fmt"
	"math"
	"sort"

	"mint/internal/temporal"
)

// MotifCount pairs a motif with its exact occurrence count.
type MotifCount struct {
	Motif   *Motif
	Count   int64
	Density float64 // count per thousand temporal edges

	// Truncated marks a count cut short by the profile's context or
	// shared budget; Count is then an exact lower bound for this motif,
	// and StopReason says what fired. The profile co-mines the set under
	// one budget, so all motifs of a stopped δ-group (and every group
	// after the stop) report the same reason.
	Truncated  bool
	StopReason StopReason
}

// MotifLibrary returns a catalog of named small motifs — cycles, chains,
// stars, ping-pongs, fan-out/fan-in, feed-forward — covering the
// application families the paper surveys (§II-B), each with window δ.
func MotifLibrary(delta Timestamp) []*Motif { return temporal.Library(delta) }

// Profile computes the temporal motif fingerprint of a graph: the exact
// count of every motif in the list. Motif distributions are stronger
// features than their static counterparts for network classification
// (§II-B, citing Tu et al.), and per-node variants serve as features for
// temporal graph learning. Counting co-mines the whole set (same-δ
// motifs share one traversal, see CountManyCtx); workers < 1 means
// GOMAXPROCS. Profile has no cancellation or budget and panics on a
// worker failure; Run a Query over the motif set and read it with
// ProfileOf for a bounded profile.
func Profile(g *Graph, motifs []*Motif, workers int) []MotifCount {
	res, err := Run(context.Background(), g, Query{Motifs: motifs, Workers: workers})
	if err != nil {
		panic(err)
	}
	return ProfileOf(g, res)
}

// ProfileOf reads a motif-set Run as a fingerprint over g: one row per
// motif with its density. ONE budget bounds the whole set, so a stopped
// run marks the motifs of the stopped (and not-yet-run) δ-groups
// Truncated, their counts exact lower bounds.
func ProfileOf(g *Graph, res Result) []MotifCount {
	out := make([]MotifCount, len(res.Batch.PerMotif))
	perK := 1000.0 / float64(max(1, g.NumEdges()))
	for i, pm := range res.Batch.PerMotif {
		out[i] = MotifCount{
			Motif:      pm.Motif,
			Count:      pm.Matches,
			Density:    float64(pm.Matches) * perK,
			Truncated:  pm.Truncated,
			StopReason: pm.StopReason,
		}
	}
	return out
}

// FingerprintDistance compares two motif fingerprints (over the same motif
// list) with the L1 distance of their log-scaled densities — a simple,
// scale-robust dissimilarity for classifying networks by temporal
// behavior. It panics if the fingerprints cover different motif lists.
func FingerprintDistance(a, b []MotifCount) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mint: fingerprint lengths differ: %d vs %d", len(a), len(b)))
	}
	d := 0.0
	for i := range a {
		if a[i].Motif.Name != b[i].Motif.Name {
			panic(fmt.Sprintf("mint: fingerprint motif mismatch at %d: %s vs %s",
				i, a[i].Motif.Name, b[i].Motif.Name))
		}
		d += math.Abs(math.Log1p(a[i].Density) - math.Log1p(b[i].Density))
	}
	return d
}

// LocalCounts computes per-node local motif counts: for every graph node,
// the number of motif occurrences it participates in (once per occurrence,
// regardless of how many of the occurrence's edges touch it). Local
// temporal motif counts serve as node features for temporal graph learning
// and improve GNN expressivity (§I, citing Bouritsas et al. and Rossi et
// al.). The slice is indexed by NodeID.
func LocalCounts(g *Graph, m *Motif) []int64 {
	counts := make([]int64, g.NumNodes())
	var touched [2 * temporal.MaxMotifEdges]NodeID
	Enumerate(g, m, func(edges []int32) {
		n := 0
		for _, id := range edges {
			e := g.Edge(EdgeID(id))
			for _, u := range []NodeID{e.Src, e.Dst} {
				dup := false
				for _, v := range touched[:n] {
					if v == u {
						dup = true
						break
					}
				}
				if !dup {
					touched[n] = u
					n++
					counts[u]++
				}
			}
		}
	})
	return counts
}

// TopMotifs returns the fingerprint sorted by descending density.
func TopMotifs(profile []MotifCount) []MotifCount {
	out := make([]MotifCount, len(profile))
	copy(out, profile)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Density > out[j].Density })
	return out
}
