package mint

import (
	"context"
	"errors"
	"testing"
)

// TestRunRejectsInvalidQueries: Run refuses every field combination
// that does not describe one run, before mining anything.
func TestRunRejectsInvalidQueries(t *testing.T) {
	g, m := denseTestGraph()
	set := []*Motif{m, M2(400)}
	visit := func([]int32) {}
	sup := &SupervisorConfig{}
	fb := &ApproxConfig{}
	roots := &RootWindow{Start: 0, End: 100}
	for _, tc := range []struct {
		name string
		q    Query
	}{
		{"no motif", Query{}},
		{"motif and motifs", Query{Motif: m, Motifs: set}},
		{"enumerate a set", Query{Motifs: set, Visit: visit}},
		{"fallback for a set", Query{Motifs: set, Fallback: fb}},
		{"supervised set", Query{Motifs: set, Supervisor: sup}},
		{"supervised roots", Query{Motif: m, Supervisor: sup, Roots: roots}},
		{"supervised enumerate", Query{Motif: m, Supervisor: sup, Visit: visit}},
		{"supervised fallback", Query{Motif: m, Supervisor: sup, Fallback: fb}},
		{"enumerate with fallback", Query{Motif: m, Visit: visit, Fallback: fb}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), g, tc.q)
			if !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("Run error = %v, want ErrInvalidQuery", err)
			}
			if res.Matches != 0 || res.Stats.NodesExpanded != 0 {
				t.Fatalf("rejected query still mined: %+v", res.MineResult)
			}
		})
	}
	for _, q := range []Query{
		{Motif: m},
		{Motifs: set, Roots: roots},
		{Motif: m, Visit: visit, Roots: roots},
		{Motif: m, Fallback: fb, Roots: roots},
		{Motif: m, Supervisor: sup},
	} {
		if err := q.Validate(); err != nil {
			t.Errorf("valid query %+v rejected: %v", q, err)
		}
	}
}
