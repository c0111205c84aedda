package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestCounterShardedFold(t *testing.T) {
	var c Counter
	for shard := 0; shard < NumShards*2; shard++ { // wraps shards
		c.AddShard(shard, int64(shard))
	}
	want := int64(0)
	for shard := 0; shard < NumShards*2; shard++ {
		want += int64(shard)
	}
	if got := c.Value(); got != want {
		t.Fatalf("folded counter = %d, want %d", got, want)
	}
	c.Add(5)
	if got := c.Value(); got != want+5 {
		t.Fatalf("after Add: %d, want %d", got, want+5)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	// Every chained call on a nil registry must be a no-op, not a panic.
	r.Counter("x").Add(1)
	r.Counter("x").AddShard(3, 1)
	r.Gauge("x").Set(7)
	r.Gauge("x").Add(2)
	r.Histogram("x").Observe(9)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 || r.Histogram("x").Count() != 0 {
		t.Fatal("nil instruments reported nonzero values")
	}
	if r.Name() != "" {
		t.Fatal("nil registry has a name")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var sp *SpanRef
	sp.Record("x", 0, time.Now(), time.Second)
	if sp.ID() != "" {
		t.Fatal("nil span has an id")
	}
}

// TestConcurrentRegistryAccess hammers registration, increments, and
// snapshots from many goroutines; run under -race this is the data-race
// guard for the whole metrics layer.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := New("race")
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Mix shared and private names so get-or-create races
				// on both the read and the write path.
				r.Counter("shared").AddShard(w, 1)
				r.Counter(fmt.Sprintf("private.%d", w)).Add(1)
				r.Gauge("depth").Set(int64(i))
				r.Histogram("lat").Observe(int64(i))
				if i%64 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("shared"); got != workers*iters {
		t.Fatalf("shared counter = %d, want %d", got, workers*iters)
	}
	for w := 0; w < workers; w++ {
		if got := s.Counter(fmt.Sprintf("private.%d", w)); got != iters {
			t.Fatalf("private.%d = %d, want %d", w, got, iters)
		}
	}
	if got := s.Histograms["lat"].Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v          int64
		wantBucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{1 << 62, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.wantBucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.wantBucket)
		}
		lo, hi := BucketRange(bucketIndex(c.v))
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside its bucket range [%d,%d]", c.v, lo, hi)
		}
	}
	// Boundaries are exclusive on the right: 2^k opens bucket k+1.
	for k := 1; k < 10; k++ {
		_, hi := BucketRange(k)
		if bucketIndex(hi) != k || bucketIndex(hi+1) != k+1 {
			t.Errorf("bucket %d upper boundary broken: hi=%d", k, hi)
		}
	}

	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 900} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 905 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	hs := snapshotHistogram(&h)
	// Populated buckets: ≤0 (×1), [1,1] (×2), [2,3] (×1), [512,1023] (×1).
	want := []Bucket{{-1 << 62, 0, 1}, {1, 1, 2}, {2, 3, 1}, {512, 1023, 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", hs.Buckets, want)
	}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if m := h.Mean(); m != 181 {
		t.Fatalf("mean = %v, want 181", m)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := New("d")
	r.Counter("a").Add(5)
	r.Histogram("h").Observe(3)
	before := r.Snapshot()
	r.Counter("a").Add(7)
	r.Counter("b").Add(1)
	r.Gauge("g").Set(42)
	r.Histogram("h").Observe(3)
	r.Histogram("h").Observe(100)
	d := r.Snapshot().Delta(before)
	if d.Counter("a") != 7 || d.Counter("b") != 1 {
		t.Fatalf("counter deltas wrong: %+v", d.Counters)
	}
	if d.Gauges["g"] != 42 {
		t.Fatalf("gauge delta = %d, want 42 (instantaneous)", d.Gauges["g"])
	}
	dh := d.Histograms["h"]
	if dh.Count != 2 || dh.Sum != 103 {
		t.Fatalf("hist delta count=%d sum=%d", dh.Count, dh.Sum)
	}
	if len(dh.Buckets) != 2 || dh.Buckets[0].N != 1 || dh.Buckets[1].N != 1 {
		t.Fatalf("hist delta buckets = %+v", dh.Buckets)
	}
}
