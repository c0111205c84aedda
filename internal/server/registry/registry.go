// Package registry is mintd's shared dataset cache: a single-flight,
// memory-watermarked LRU of loaded temporal graphs.
//
// A serving process answers many requests against few graphs, and a
// SNAP load is orders of magnitude more expensive than a count on the
// scaled datasets — so the failure mode to defend against is a burst of
// requests for the same (not yet loaded) dataset each kicking off its
// own multi-second load and tripling memory. Get collapses concurrent
// loads of one name into a single flight, retries transient loader
// failures with capped backoff, and evicts least-recently-used graphs
// once the estimated resident bytes cross the watermark. Graphs are
// immutable, so eviction is just dropping the cache reference: requests
// already holding the *Graph keep mining it safely and the GC reclaims
// it when the last one finishes.
package registry

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/temporal"
)

// Loader produces the graph for a dataset name. It must be safe for
// concurrent use with distinct names; the registry guarantees it is
// never called concurrently for the same name.
type Loader func(ctx context.Context, name string) (*temporal.Graph, error)

// Options configures a Registry. The zero value (with a Loader) means:
// no memory watermark, 3 load attempts, 50ms..1s backoff, no metrics.
type Options struct {
	// Loader is required.
	Loader Loader
	// MaxBytes is the eviction watermark over the estimated resident
	// size of all cached graphs; 0 disables eviction. A single graph
	// larger than the watermark is still cached (the alternative is
	// reloading it per request, which is strictly worse).
	MaxBytes int64
	// MaxAttempts bounds loader tries per flight (< 1 means 3).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry delay (defaults
	// 50ms / 1s), via runctl.Backoff.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Obs receives registry counters and gauges (may be nil).
	Obs *obs.Registry
}

func (o Options) normalized() Options {
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
	return o
}

// entry is one cached (or in-flight) dataset.
type entry struct {
	name  string
	ready chan struct{} // closed when the flight lands
	g     *temporal.Graph
	err   error
	bytes int64
	// lastUse orders eviction; guarded by the registry mutex.
	lastUse int64
	// pins counts Checkout holders actively mining this dataset; guarded
	// by the registry mutex. A pinned entry is never evicted: the graph
	// is resident anyway (the miner holds it), so evicting would only
	// make the watermark accounting lie and force a pointless reload for
	// the next request.
	pins int
}

// Registry is the cache. All methods are safe for concurrent use.
type Registry struct {
	opts Options

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64 // resident estimate over landed entries
	useSeq  int64 // logical clock for LRU ordering
}

// New builds a Registry; it panics without a Loader (a registry that
// cannot load is a programming error, not a runtime condition).
func New(opts Options) *Registry {
	if opts.Loader == nil {
		panic("registry: Options.Loader is required")
	}
	// Export the configured watermark once: together with the live
	// registry.bytes gauge it makes cache pressure readable off /metrics
	// (bytes/max_bytes) without knowing the server flags.
	opts.Obs.Gauge("registry.max_bytes").Set(opts.MaxBytes)
	return &Registry{opts: opts.normalized(), entries: map[string]*entry{}}
}

// GraphBytes estimates the resident size of a loaded graph: the edge
// array, the out/in edge-index arrays and the two per-node offset tables
// of its CSR adjacency.
func GraphBytes(g *temporal.Graph) int64 {
	if g == nil {
		return 0
	}
	const edgeSize = 16 // Src, Dst int32 + Time int64
	e := int64(g.NumEdges())
	n := int64(g.NumNodes())
	// Every edge appears once in the out-index and once in the in-index
	// array; each offset table holds n+1 int32s.
	return e*edgeSize + 2*e*4 + 2*(n+1)*4
}

// Get returns the graph for name, loading it (once) if necessary.
// Concurrent calls for the same name share one flight: one caller runs
// the loader with retry/backoff, the rest wait on the flight (or their
// own context). A failed flight is not negatively cached — the next Get
// starts a fresh one.
func (r *Registry) Get(ctx context.Context, name string) (*temporal.Graph, error) {
	g, _, err := r.get(ctx, name)
	return g, err
}

// Checkout is Get plus a pin: the returned release func must be called
// when the caller stops mining the graph (defer it). While pinned the
// entry is exempt from LRU eviction, so a burst of loads for other
// datasets cannot push an actively-mined dataset out from under its
// in-flight runs — the graph itself is immutable and GC-safe either
// way, but an evicted-while-mined entry makes the resident-bytes
// watermark undercount reality and forces the next request for the same
// name to reload a graph that is still in memory. Release is idempotent.
func (r *Registry) Checkout(ctx context.Context, name string) (*temporal.Graph, func(), error) {
	g, e, err := r.get(ctx, name)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	pinned := r.entries[name] == e
	if pinned {
		e.pins++
	}
	r.mu.Unlock()
	var once sync.Once
	release := func() {
		once.Do(func() {
			if !pinned {
				return
			}
			r.mu.Lock()
			e.pins--
			// Unpinning may reopen eviction room the watermark has been
			// waiting for; settle it now rather than on the next load.
			r.evictLocked(nil)
			r.mu.Unlock()
		})
	}
	return g, release, nil
}

// get resolves name to its graph and cache entry.
func (r *Registry) get(ctx context.Context, name string) (*temporal.Graph, *entry, error) {
	o := r.opts.Obs
	for {
		r.mu.Lock()
		e, ok := r.entries[name]
		if ok {
			select {
			case <-e.ready:
				// Landed: either a cached success or a failure not yet
				// removed by its flight owner.
				if e.err == nil {
					r.useSeq++
					e.lastUse = r.useSeq
					r.mu.Unlock()
					o.Counter("registry.hit").Add(1)
					return e.g, e, nil
				}
				// A failed entry is being torn down; retry the lookup.
				delete(r.entries, name)
				r.mu.Unlock()
				continue
			default:
			}
			r.mu.Unlock()
			// In flight: join it.
			o.Counter("registry.join").Add(1)
			select {
			case <-e.ready:
				if e.err != nil {
					return nil, nil, e.err
				}
				r.touch(e)
				return e.g, e, nil
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		e = &entry{name: name, ready: make(chan struct{})}
		r.entries[name] = e
		r.mu.Unlock()
		g, err := r.load(ctx, e)
		return g, e, err
	}
}

// touch refreshes an entry's LRU position.
func (r *Registry) touch(e *entry) {
	r.mu.Lock()
	r.useSeq++
	e.lastUse = r.useSeq
	r.mu.Unlock()
}

// load runs the flight for e: loader with retry/backoff, then publish
// (close ready) and evict over-watermark entries, or tear the entry
// down on failure so later Gets can retry.
func (r *Registry) load(ctx context.Context, e *entry) (*temporal.Graph, error) {
	o := r.opts.Obs
	o.Counter("registry.load").Add(1)
	var g *temporal.Graph
	var err error
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			o.Counter("registry.load_retry").Add(1)
			select {
			case <-time.After(runctl.Backoff(attempt-1, r.opts.BackoffBase, r.opts.BackoffCap)):
			case <-ctx.Done():
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		g, err = r.opts.Loader(ctx, e.name)
		if err == nil {
			break
		}
	}
	r.mu.Lock()
	if err != nil {
		e.err = fmt.Errorf("registry: loading %q: %w", e.name, err)
		delete(r.entries, e.name)
		close(e.ready)
		r.mu.Unlock()
		o.Counter("registry.load_fail").Add(1)
		return nil, e.err
	}
	e.g = g
	e.bytes = GraphBytes(g)
	r.useSeq++
	e.lastUse = r.useSeq
	r.bytes += e.bytes
	close(e.ready)
	r.evictLocked(e)
	n := len(r.entries)
	b := r.bytes
	r.mu.Unlock()
	o.Gauge("registry.entries").Set(int64(n))
	o.Gauge("registry.bytes").Set(b)
	return g, nil
}

// evictLocked drops least-recently-used landed entries (never keep, the
// entry just loaded) until the resident estimate fits the watermark.
// In-flight entries are skipped: evicting a flight would strand its
// joiners. Pinned entries (Checkout holders still mining) are skipped
// too — the watermark is a protection limit and may be transiently
// exceeded while every resident graph is actively in use.
func (r *Registry) evictLocked(keep *entry) {
	if r.opts.MaxBytes <= 0 {
		return
	}
	for r.bytes > r.opts.MaxBytes {
		var victim *entry
		for _, e := range r.entries {
			if e == keep || e.pins > 0 || !landed(e) {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(r.entries, victim.name)
		r.bytes -= victim.bytes
		r.opts.Obs.Counter("registry.evict").Add(1)
		// Keep the live gauges honest on the eviction path too — load()
		// only refreshes them after its own evict pass, but Checkout
		// releases also evict.
		r.opts.Obs.Gauge("registry.entries").Set(int64(len(r.entries)))
		r.opts.Obs.Gauge("registry.bytes").Set(r.bytes)
	}
}

func landed(e *entry) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Len returns the number of cached or in-flight datasets.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Bytes returns the current resident-size estimate of landed entries.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Names returns the cached dataset names (landed flights only), for
// readiness reporting. Order is unspecified.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for name, e := range r.entries {
		if landed(e) && e.err == nil {
			out = append(out, name)
		}
	}
	return out
}
