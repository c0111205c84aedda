package temporal

import (
	"strings"
	"testing"
)

// FuzzMotifParse: ParseMotif must never panic or stall on arbitrary input,
// must reject motifs beyond the MaxMotifEdges hardware limit, and every
// accepted motif must survive a parse → String → parse round trip with its
// structure intact (String is the canonical form, so the second parse must
// also reproduce the same string). This is the regression guard for the
// contiguity check in NewMotif, whose original per-ID sweep turned inputs
// like "2147483647->0" into a multi-second stall.
func FuzzMotifParse(f *testing.F) {
	f.Add("0->1,1->2,2->0")
	f.Add("A->B; B->C; C->A")
	f.Add("0->1")
	f.Add("0->1,1->0,0->1,1->0")
	f.Add(" 0 -> 1 ; 1 -> 2 ")
	f.Add("->")
	f.Add("0->0")
	f.Add("0->2")                    // skips node 1
	f.Add("2147483647->0")           // huge ID: must fail fast
	f.Add("0->99999999999999999999") // overflows the node type
	f.Add("-1->0")                   // negative ID
	f.Add("A->B,B->" + strings.Repeat("Z", 4096))
	f.Add(strings.TrimSuffix(strings.Repeat("0->1,", MaxMotifEdges+1), ",")) // 9 edges
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ParseMotif("fuzz", DeltaHour, in)
		if err != nil {
			return
		}
		if n := m.NumEdges(); n < 1 || n > MaxMotifEdges {
			t.Fatalf("accepted motif with %d edges from %q (limit %d)", n, in, MaxMotifEdges)
		}
		if m.NumNodes() < 2 || m.NumNodes() > 2*m.NumEdges() {
			t.Fatalf("accepted motif with implausible node count %d from %q", m.NumNodes(), in)
		}
		canon := m.String()
		m2, err := ParseMotif("fuzz2", m.Delta, canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q failed to reparse: %v", canon, in, err)
		}
		if got := m2.String(); got != canon {
			t.Fatalf("round trip drift: %q -> %q -> %q", in, canon, got)
		}
		if m2.NumEdges() != m.NumEdges() || m2.NumNodes() != m.NumNodes() || m2.Delta != m.Delta {
			t.Fatalf("round trip changed shape: %v vs %v (from %q)", m2, m, in)
		}
		for i := range m.Edges {
			if m.Edges[i] != m2.Edges[i] {
				t.Fatalf("round trip changed edge %d: %v vs %v (from %q)", i, m.Edges[i], m2.Edges[i], in)
			}
		}
	})
}
