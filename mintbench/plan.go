package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"mint"
	"mint/internal/datasets"
	"mint/internal/temporal"
)

// scale is the synthetic Table I scale every mintd serves (its default).
const scale = 0.01

// batchEdges is the size of one ingest batch.
const batchEdges = 64

// enumLimit is the page size of every enumerate request.
const enumLimit = 100

// enumPages is how many pages of each enumeration are walked.
const enumPages = 2

type countTmpl struct {
	Dataset string
	Motif   string
	Delta   int64
	want    int64
}

type batchTmpl struct {
	Dataset string
	Motifs  []string
	Delta   int64
	want    []int64
}

type enumTmpl struct {
	Dataset string
	Motif   string
	Delta   int64
	Page    int
	// token and want are filled by the discovery walk: the page token
	// that reaches this page and the matches it must hold.
	token string
	want  [][]int32
	next  string
}

// spec describes one workload.
type spec struct {
	name  string
	coord bool // queries go through a coordinator over three workers
	// window is how many live edges the ingest stream's retention window
	// holds; liveScale is the wiki-talk scale the stream is cut from.
	window    int
	liveScale float64
	// rate is the open-loop offered rate, in operations per second.
	rate float64
	// ingests is how many ingest operations one round of the sequence
	// holds beside one request per static template.
	ingests int
}

var specs = []*spec{
	{name: "query-worker", window: 20_000, liveScale: 0.015, rate: 40, ingests: 9},
	{name: "query-coord", coord: true, window: 20_000, liveScale: 0.015, rate: 30, ingests: 9},
	{name: "ingest-live", window: 200_000, liveScale: 0.05, rate: 24, ingests: 5},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one entry of the request sequence: a class and, for static
// queries, the template index.
type op struct {
	class string
	tmpl  int
}

// plan is everything a run sends, made from the seed.
type plan struct {
	spec   *spec
	counts []*countTmpl
	batch  []*batchTmpl
	enums  []*enumTmpl
	seq    []op
	heavy  []op // the templates that mine for tens of milliseconds
	graphs map[string]*mint.Graph

	// The live stream: prefill batches (sent during set-up), then the
	// streamed operations in send order.
	prefill [][]temporal.Edge
	stream  []streamOp
	batches [][]temporal.Edge
	window  int64
}

// streamOp is one ingest request: batch index and client sequence. A
// resend repeats the previous request exactly and must be acked as a
// duplicate.
type streamOp struct {
	batch  int
	seq    uint64
	resend bool
}

var staticDatasets = []string{"email-eu", "mathoverflow", "wiki-talk", "stackoverflow"}

func newPlan(sp *spec, seed int64, rounds int) (*plan, error) {
	p := &plan{spec: sp, graphs: map[string]*mint.Graph{}}
	for _, name := range staticDatasets {
		ds, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		g, err := datasets.Load(ds, "", scale)
		if err != nil {
			return nil, err
		}
		p.graphs[name] = g
	}
	// Each class holds a cheap plateau (1–3 ms with one mining thread)
	// and a heavy one (70–100 ms), with the cheap templates three
	// quarters of the class: p50 lands inside the cheap plateau and p90
	// inside the heavy one, never on the step between them, so a
	// percentile does not jump between templates from run to run.
	cheapCounts := []countTmpl{
		{"email-eu", "M1", 3600, 0}, {"email-eu", "M2", 3600, 0}, {"email-eu", "M3", 3600, 0},
		{"mathoverflow", "M1", 3600, 0}, {"mathoverflow", "M2", 3600, 0}, {"mathoverflow", "M3", 3600, 0},
		{"mathoverflow", "M1", 86400, 0}, {"mathoverflow", "M2", 86400, 0}, {"mathoverflow", "M3", 86400, 0},
	}
	heavyCounts := []countTmpl{
		{"stackoverflow", "M1", 3600, 0}, {"stackoverflow", "M2", 3600, 0}, {"stackoverflow", "M3", 3600, 0},
	}
	cheapBatch := []string{"email-eu", "email-eu", "email-eu", "email-eu"}
	heavyBatch := []string{"wiki-talk"}
	for i := range cheapCounts {
		p.counts = append(p.counts, &cheapCounts[i])
	}
	for i := range heavyCounts {
		p.counts = append(p.counts, &heavyCounts[i])
		p.heavy = append(p.heavy, op{class: "count", tmpl: len(p.counts) - 1})
	}
	for i, d := range append(cheapBatch, heavyBatch...) {
		p.batch = append(p.batch, &batchTmpl{Dataset: d, Motifs: []string{"M1", "M2", "M3", "M4"}, Delta: 3600})
		if i >= len(cheapBatch) {
			p.heavy = append(p.heavy, op{class: "batch", tmpl: i})
		}
	}
	enumSets := []struct {
		d     string
		m     string
		delta int64
	}{{"email-eu", "M1", 86400}, {"mathoverflow", "M1", 3600}, {"wiki-talk", "M1", 3600}}
	for _, e := range enumSets {
		for page := 0; page < enumPages; page++ {
			p.enums = append(p.enums, &enumTmpl{Dataset: e.d, Motif: e.m, Delta: e.delta, Page: page})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	p.seq = buildSequence(rng, map[string]int{
		"count": len(p.counts), "batch": len(p.batch), "enum": len(p.enums), "ingest": sp.ingests,
	}, p.heavy, rounds)
	if err := p.buildStream(rng); err != nil {
		return nil, err
	}
	return p, nil
}

// buildSequence lays out rounds of the mix. Every round sends each
// static template once and ingests times, so any seed sends the same
// work in another order: the seed moves the interleaving, not the mix.
// Heavy operations and ingest batches (which hold the single writer)
// are spread evenly through each round, so no seed stacks them back to
// back and queues everything behind them.
func buildSequence(rng *rand.Rand, ntmpl map[string]int, heavy []op, rounds int) []op {
	isHeavy := map[op]bool{}
	for _, h := range heavy {
		isHeavy[h] = true
	}
	var light, hv []op
	for _, c := range []string{"batch", "count", "enum", "ingest"} {
		for t := 0; t < ntmpl[c]; t++ {
			o := op{class: c, tmpl: t}
			if c == "ingest" {
				o.tmpl = 0
			}
			if isHeavy[o] || c == "ingest" {
				hv = append(hv, o)
			} else {
				light = append(light, o)
			}
		}
	}
	n := len(light) + len(hv)
	var seq []op
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(light), func(i, j int) { light[i], light[j] = light[j], light[i] })
		rng.Shuffle(len(hv), func(i, j int) { hv[i], hv[j] = hv[j], hv[i] })
		round := make([]op, 0, n)
		li, hi := 0, 0
		for k := 0; k < n; k++ {
			// Heavy operation h goes to slot (h+0.5)·n/len(hv).
			if hi < len(hv) && k == (2*hi+1)*n/(2*len(hv)) {
				round = append(round, hv[hi])
				hi++
				continue
			}
			round = append(round, light[li])
			li++
		}
		seq = append(seq, round...)
	}
	return seq
}

// buildStream cuts the live stream from the wiki-talk synthetic graph:
// the first window edges prefill the live dataset, the rest arrive in
// 64-edge batches, mostly in time order. The seed picks which batches
// arrive out of order (about one in twenty swaps places with its
// successor, well inside the window) and which are sent twice with the
// same client sequence (an idempotent resend). The edges themselves do
// not depend on the seed: the window is a span of time, and a seeded
// graph's bursts moved the live edge count, and with it every ingest
// latency, by a quarter between seeds.
func (p *plan) buildStream(rng *rand.Rand) error {
	ds, err := datasets.ByName("wiki-talk")
	if err != nil {
		return err
	}
	g, err := datasets.Generate(ds, p.spec.liveScale)
	if err != nil {
		return err
	}
	edges := g.Edges
	w := p.spec.window
	if len(edges) < w+batchEdges*64 {
		return fmt.Errorf("live stream has %d edges, want more than %d", len(edges), w)
	}
	// The window spans exactly the prefill, so set-up leaves it full.
	p.window = int64(edges[w-1].Time - edges[0].Time)
	for i := 0; i < w; i += 10_000 {
		p.prefill = append(p.prefill, edges[i:min(i+10_000, w)])
	}
	for i := w; i+batchEdges <= len(edges); i += batchEdges {
		p.batches = append(p.batches, edges[i:i+batchEdges])
	}
	order := make([]int, len(p.batches))
	for i := range order {
		order[i] = i
	}
	for i := 0; i+1 < len(order); i++ {
		if rng.Intn(20) == 0 {
			order[i], order[i+1] = order[i+1], order[i]
			i++
		}
	}
	seq := uint64(len(p.prefill))
	for _, b := range order {
		seq++
		p.stream = append(p.stream, streamOp{batch: b, seq: seq})
		if rng.Intn(20) == 0 {
			p.stream = append(p.stream, streamOp{batch: b, seq: seq, resend: true})
		}
	}
	return nil
}

// computeOracle fills every static template's expected answer with the
// library miner on the same graphs the servers generate.
func (p *plan) computeOracle() error {
	workers := runtime.GOMAXPROCS(0)
	counts := map[string]int64{}
	count := func(d, m string, delta int64) (int64, error) {
		key := fmt.Sprintf("%s/%s/%d", d, m, delta)
		if v, ok := counts[key]; ok {
			return v, nil
		}
		mo, err := mint.MotifByName(m, mint.Timestamp(delta))
		if err != nil {
			return 0, err
		}
		v := mint.CountParallel(p.graphs[d], mo, workers)
		counts[key] = v
		return v, nil
	}
	var err error
	for _, t := range p.counts {
		if t.want, err = count(t.Dataset, t.Motif, t.Delta); err != nil {
			return err
		}
	}
	for _, t := range p.batch {
		t.want = make([]int64, len(t.Motifs))
		for i, m := range t.Motifs {
			if t.want[i], err = count(t.Dataset, m, t.Delta); err != nil {
				return err
			}
		}
	}
	return nil
}

// enumOracle returns the first n matches of the chronological
// enumeration, the order every page walk must reproduce.
func enumOracle(g *mint.Graph, motif string, delta int64, n int) ([][]int32, error) {
	m, err := mint.MotifByName(motif, mint.Timestamp(delta))
	if err != nil {
		return nil, err
	}
	var out [][]int32
	mint.EnumerateCtx(context.Background(), g, m, mint.Budget{MaxMatches: int64(n)}, func(e []int32) {
		out = append(out, append([]int32(nil), e...))
	})
	return out, nil
}

// liveModel mirrors the stream's retention rule: an edge is live while
// its time is at or after the newest time seen minus the window.
type liveModel struct {
	window int64
	edges  []temporal.Edge
	maxT   temporal.Timestamp
	hasMax bool
	cutoff temporal.Timestamp
	hasCut bool
}

func (m *liveModel) apply(batch []temporal.Edge) {
	for _, e := range batch {
		if !m.hasMax || e.Time > m.maxT {
			m.maxT, m.hasMax = e.Time, true
		}
	}
	if m.window > 0 && m.hasMax {
		if c := m.maxT - temporal.Timestamp(m.window); !m.hasCut || c > m.cutoff {
			m.cutoff, m.hasCut = c, true
		}
	}
	kept := m.edges[:0]
	for _, e := range m.edges {
		if !m.hasCut || e.Time >= m.cutoff {
			kept = append(kept, e)
		}
	}
	m.edges = kept
	for _, e := range batch {
		if !m.hasCut || e.Time >= m.cutoff {
			m.edges = append(m.edges, e)
		}
	}
}
