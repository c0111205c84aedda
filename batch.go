package mint

// Multi-motif co-mining (Mayura-style): counting a motif SET in one
// engine pass instead of one pass per motif. Same-δ motifs whose
// canonical edge sequences share a prefix — the Paranjape M1–M4 family
// all starts with (0→1) — are mined by a single search-tree traversal
// with per-motif bookkeeping forked only where the sequences diverge,
// recovering the redundant prefix work a per-motif sweep repeats. See
// internal/comine and DESIGN.md §13.

import (
	"context"

	"mint/internal/comine"
)

// BatchResult is the outcome of a co-mined multi-motif run: per-motif
// counts (indexed like the input motif slice), merged engine stats,
// and the co-mining shape (groups, fork points, shared expansions).
type BatchResult = comine.Result

// BatchMotifResult is one motif's row in a BatchResult. Counts are
// bit-identical to an independent single-motif run; a truncated row is
// an exact lower bound, loudly flagged with its StopReason.
type BatchMotifResult = comine.MotifResult

// CountManyCtx counts every motif of the set in one co-mined run under
// ONE shared budget: same-δ motifs are grouped and mined by a single
// traversal per group, so b bounds the batch as a whole — not each
// motif separately. Per-motif counts are bit-identical to independent
// CountParallelCtx runs; a truncated batch marks every motif of the
// stopped (and not-yet-run) groups Truncated with the reason, counts
// staying exact lower bounds. A worker panic converts to a returned
// *PanicError alongside the partial result.
func CountManyCtx(ctx context.Context, g *Graph, motifs []*Motif, workers int, b Budget) (BatchResult, error) {
	res, err := Run(ctx, g, Query{Motifs: motifs, Workers: workers, Budget: b})
	return res.Batch, err
}
