// Package obs is the zero-dependency observability substrate of the
// repository: atomic counters, gauges, and log2-bucket histograms grouped
// into named registries, a per-request span recorder (ReqTrace) with a
// Chrome trace_event exporter, a structured end-of-run report
// (RunReport), and an expvar/pprof HTTP exporter.
//
// The paper's evaluation (Figs 2 and 7, the Fig 10–13 sweeps) is built
// from workload characterization — candidate scans, memory touches,
// branch behavior, task-queue occupancy. This package gives every engine
// in the repository one shared schema for those measurements so that a
// perf PR can prove its effect from emitted metrics instead of ad-hoc
// prints, and so a truncated or cancelled run can be diagnosed after the
// fact from its RunReport.
//
// # Hot-path contract
//
// Counters are sharded: writers add into per-worker cache-line-padded
// slots (AddShard) and the shards are folded only at snapshot time, so
// the miners' inner loops never contend on a shared cache line. The
// miners go one step further and fold their existing private Stats
// structs into the registry once per run — the per-event cost of
// instrumentation-enabled mining is therefore zero, which the
// TestObsOverheadGuard benchmark guard in internal/mackey enforces
// (<3% on the sequential miner).
//
// Every method on Registry, Counter, Gauge, Histogram, ReqTrace and
// SpanRef is nil-receiver-safe: a nil registry hands out nil instruments
// whose mutators are no-ops, so call sites need no "is observability
// on?" branches.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// NumShards is the number of independent slots of a sharded Counter.
// Workers address shards by worker index (wrapped); 16 covers the
// parallelism of the evaluated machines without bloating snapshots.
const NumShards = 16

// counterShard is one cache-line-padded counter slot.
type counterShard struct {
	v atomic.Int64
	_ [56]byte // pad to 64 B so adjacent shards never share a line
}

// Counter is a monotonically increasing, sharded counter.
type Counter struct {
	shards [NumShards]counterShard
}

// Add increments the counter by d (shard 0). Use AddShard from
// per-worker code so concurrent writers land on distinct cache lines.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.shards[0].v.Add(d)
}

// AddShard increments the counter by d in the given worker's shard.
// Any shard index is legal; it is wrapped into range.
func (c *Counter) AddShard(shard int, d int64) {
	if c == nil {
		return
	}
	c.shards[shard&(NumShards-1)].v.Add(d)
}

// Value folds the shards and returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous value (queue depth, budget remaining, ...).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d and returns the new value.
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(d)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket 0 holds
// values ≤ 0 and bucket i (1 ≤ i ≤ 63) holds values in [2^(i-1), 2^i).
const histBuckets = 64

// Histogram is a fixed-geometry log2 histogram. Observe is one atomic
// add plus a bits.Len64, so it is safe (if not free) on warm paths;
// the miners only observe per-run and per-worker quantities.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a value to its bucket: 0 for v ≤ 0, else
// bits.Len64(v) (so 1→1, 2..3→2, 4..7→3, ...).
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketRange returns the inclusive value range of bucket i.
func BucketRange(i int) (lo, hi int64) {
	if i <= 0 {
		return -1 << 62, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Registry is a named collection of instruments. Instruments are created
// on first use and live for the registry's lifetime; all methods are safe
// for concurrent use, including on a nil receiver (which hands out nil,
// no-op instruments).
type Registry struct {
	name string

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry with the given name (the key it is
// published under in the expvar snapshot).
func New(name string) *Registry {
	return &Registry{
		name:     name,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Name returns the registry's name ("" for nil).
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Bucket is one populated histogram bucket in a snapshot: N observations
// in the inclusive value range [Lo, Hi].
type Bucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is the folded state of one histogram. Only populated
// buckets appear, in ascending value order.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is the folded state of a whole registry at one instant.
type Snapshot struct {
	Name       string                       `json:"name,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot folds every instrument (summing counter shards) into a
// point-in-time copy. Concurrent writers keep writing; the snapshot is
// internally consistent per instrument, not across instruments.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.Name = r.name
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = snapshotHistogram(h)
	}
	return s
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			lo, hi := BucketRange(i)
			hs.Buckets = append(hs.Buckets, Bucket{Lo: lo, Hi: hi, N: n})
		}
	}
	return hs
}

// Counter returns the snapshot value of a counter (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Delta returns the change from prev to s: counters and histogram
// buckets are subtracted (clamped at ≥ 0 per entry); gauges keep their
// value in s, since a gauge is instantaneous rather than cumulative.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Name:       s.Name,
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for name, v := range s.Counters {
		if dv := v - prev.Counters[name]; dv > 0 {
			d.Counters[name] = dv
		}
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		dh := deltaHistogram(h, prev.Histograms[name])
		if dh.Count > 0 {
			d.Histograms[name] = dh
		}
	}
	return d
}

func deltaHistogram(cur, prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum}
	prevByLo := map[int64]int64{}
	for _, b := range prev.Buckets {
		prevByLo[b.Lo] = b.N
	}
	for _, b := range cur.Buckets {
		if n := b.N - prevByLo[b.Lo]; n > 0 {
			d.Buckets = append(d.Buckets, Bucket{Lo: b.Lo, Hi: b.Hi, N: n})
		}
	}
	sort.Slice(d.Buckets, func(i, j int) bool { return d.Buckets[i].Lo < d.Buckets[j].Lo })
	return d
}
