package server

// Per-(dataset, motif-class) circuit breakers.
//
// A workload that panics or trips fault injection once will very likely
// do it again: the search tree it explores is deterministic for a given
// (graph, motif, δ). Retrying the exact engine on every arriving request
// would burn a worker slot per attempt exactly when the engine is least
// trustworthy. The breaker remembers recent outcomes per workload key
// and, after Threshold consecutive failures, routes that key straight to
// the degraded (PRESTO-leaning fallback ladder) path for Cooldown —
// cheap, sampling-based, fault-site-free — then lets one trial request
// probe the exact engine again (half-open) before closing.

import (
	"sync"
	"time"

	"mint/internal/obs"
)

// BreakerConfig shapes the trip/recover behavior. Zero fields take
// defaults: Threshold 3, Cooldown 30s.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	Threshold int
	// Cooldown is how long an open breaker degrades its key before
	// allowing a half-open trial.
	Cooldown time.Duration
}

func (c BreakerConfig) normalized() BreakerConfig {
	if c.Threshold < 1 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// Decision is the breaker's verdict for one request.
type Decision int

const (
	// Allow: breaker closed; run the exact engine.
	Allow Decision = iota
	// Trial: breaker half-open; this request probes the exact engine.
	// Its Record decides whether the breaker closes or re-opens.
	Trial
	// Degrade: breaker open; serve the degraded path, don't Record.
	Degrade
)

// String names the decision for spans and explain trees.
func (d Decision) String() string {
	switch d {
	case Trial:
		return "trial"
	case Degrade:
		return "degrade"
	default:
		return "allow"
	}
}

// Gauge values for the per-workload breaker.state gauge.
const (
	breakerStateClosed   = 0
	breakerStateOpen     = 1
	breakerStateHalfOpen = 2
)

// setStateGauge exports the key's breaker state as a live labeled gauge
// (`breaker.state{workload="..."}`), so /metrics and /debug/vars show
// the same per-(dataset,motif) view the router acts on. Called with
// b.mu held.
func (b *BreakerGroup) setStateGauge(key string, state int64) {
	b.obs.Gauge(obs.Labeled("breaker.state", "workload", key)).Set(state)
}

// breakerState is one key's window into recent history.
type breakerState struct {
	fails     int       // consecutive failures while closed
	openUntil time.Time // non-zero while open / half-open-eligible
	trial     bool      // a half-open probe is in flight
}

// BreakerGroup manages the per-key breakers. All methods are safe for
// concurrent use; the map grows one small struct per distinct workload
// key, which is bounded by the dataset × motif-class cross product.
type BreakerGroup struct {
	cfg BreakerConfig
	now func() time.Time // injectable clock for tests
	obs *obs.Registry

	mu     sync.Mutex
	states map[string]*breakerState
}

func NewBreakerGroup(cfg BreakerConfig, reg *obs.Registry) *BreakerGroup {
	return &BreakerGroup{cfg: cfg.normalized(), now: time.Now, obs: reg, states: map[string]*breakerState{}}
}

// Acquire returns the routing decision for key right now.
func (b *BreakerGroup) Acquire(key string) Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil || st.openUntil.IsZero() {
		return Allow
	}
	if b.now().Before(st.openUntil) || st.trial {
		b.obs.Counter("breaker.degraded").Add(1)
		return Degrade
	}
	// Cooldown over and no probe in flight: this request is the probe.
	st.trial = true
	b.setStateGauge(key, breakerStateHalfOpen)
	b.obs.Counter("breaker.trial").Add(1)
	return Trial
}

// Record reports the outcome of an Allow or Trial request. A success
// closes the breaker (resetting history); a failure counts toward the
// threshold and re-opens a half-open breaker immediately.
func (b *BreakerGroup) Record(key string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil {
		st = &breakerState{}
		b.states[key] = st
	}
	wasTrial := st.trial
	st.trial = false
	if ok {
		if !st.openUntil.IsZero() {
			b.obs.Counter("breaker.close").Add(1)
		}
		st.fails = 0
		st.openUntil = time.Time{}
		b.setStateGauge(key, breakerStateClosed)
		return
	}
	if wasTrial {
		// The probe failed: straight back to open, no threshold count.
		st.openUntil = b.now().Add(b.cfg.Cooldown)
		b.setStateGauge(key, breakerStateOpen)
		b.obs.Counter("breaker.reopen").Add(1)
		return
	}
	st.fails++
	if st.fails >= b.cfg.Threshold && st.openUntil.IsZero() {
		st.openUntil = b.now().Add(b.cfg.Cooldown)
		st.fails = 0
		b.setStateGauge(key, breakerStateOpen)
		b.obs.Counter("breaker.trip").Add(1)
	}
}

// Open reports whether key currently routes to the degraded path
// (open and still cooling down), for readiness introspection and tests.
func (b *BreakerGroup) Open(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	return st != nil && !st.openUntil.IsZero() && b.now().Before(st.openUntil)
}
