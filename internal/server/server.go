// Package server is mintd's serving core: a long-lived HTTP/JSON facade
// over the mining engines with the robustness ladder the one-shot CLIs
// never needed — bounded admission with priority-aware load shedding,
// per-request budgets derived from client deadlines and server caps,
// per-(dataset, motif-class) circuit breakers that degrade to the
// exact→PRESTO fallback path, a single-flight LRU dataset registry, and
// graceful drain that finishes or checkpoints in-flight work before the
// process exits.
//
// The response contract is the serving-layer restatement of the engine
// truncation contract: every answer is exact, loudly degraded
// ("degraded": true, engine named), loudly truncated (stop reason
// named), or a clean 429/503 — never silently wrong.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"mint"
	"mint/internal/datasets"
	"mint/internal/obs"
	"mint/internal/replica"
	"mint/internal/runctl"
	"mint/internal/server/registry"
	"mint/internal/shard"
)

// ErrUnknownDataset marks loader failures caused by the dataset name
// (not the environment); the HTTP layer maps it to 400 instead of 503.
var ErrUnknownDataset = errors.New("unknown dataset")

// Config assembles a Server. The zero value plus defaults serves the
// six Table I datasets as scaled synthetic graphs.
type Config struct {
	// DataDir, when set, lets the default loader read real SNAP files
	// (<name>.txt) instead of generating synthetic graphs.
	DataDir string
	// Scale is the synthetic dataset scale for the default loader
	// ((0,1]; 0 means 0.01 — the quick-serving operating point).
	Scale float64
	// Loader overrides dataset resolution entirely (tests, custom
	// corpora). When nil, the datasets package serves Table I names.
	Loader registry.Loader
	// RegistryMaxBytes is the dataset cache watermark (0 = unbounded).
	RegistryMaxBytes int64

	// Workers is per-request mining parallelism (0 = GOMAXPROCS).
	Workers int
	// Caps bounds every admitted request's budget.
	Caps runctl.Caps
	// Admission bounds the front door.
	Admission AdmissionConfig
	// Breaker shapes the per-workload circuit breakers.
	Breaker BreakerConfig
	// EnumerateMaxLimit caps one enumerate page (0 = 1000).
	EnumerateMaxLimit int
	// MaxBodyBytes caps every JSON request body (http.MaxBytesReader);
	// 0 means DefaultMaxBodyBytes. Oversized bodies answer 413.
	MaxBodyBytes int64
	// CheckpointDir enables supervised counting: requests with
	// "supervised": true checkpoint under this directory and drain can
	// cut them short without losing completed chunks.
	CheckpointDir string
	// Ingest, when enabled (Dir set), serves a durable live dataset:
	// POST /v1/edges appends to a crash-safe WAL, startup replays it
	// before /readyz goes ready, and the mining endpoints resolve the
	// live dataset name to the replayed graph.
	Ingest IngestConfig
	// Chaos, when non-nil, threads a deterministic fault plan through
	// every engine (robustness testing).
	Chaos *mint.ChaosPlan
	// Obs receives all server metrics (nil: metrics are dropped).
	Obs *obs.Registry
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (trace id, route, priority, outcome, degradation markers,
	// duration).
	AccessLog io.Writer
	// TraceCapacity bounds how many finished request traces are retained
	// for GET /debug/trace/<id> (0 = 256).
	TraceCapacity int
}

// Server is the serving core. Create with New, mount Handler, and call
// Drain exactly once on the way out.
type Server struct {
	cfg   Config
	obs   *obs.Registry
	data  *registry.Registry
	brk   *BreakerGroup
	front *Front

	reqSeq atomic.Int64 // distinguishes per-request checkpoint files

	// live is the durable ingest stream (nil until startup replay
	// lands, and when ingestion is disabled). liveReady closes when the
	// replay goroutine finishes — success or failure — and
	// liveReplaying is true in between: the window where /readyz and
	// the live-dataset paths answer 503 instead of serving a graph that
	// is still being rebuilt.
	liveMu        sync.Mutex
	live          *mint.Stream
	liveErr       error
	liveRec       mint.StreamRecovery
	liveReady     chan struct{}
	liveReplaying atomic.Bool

	// Replication state. follower/followerStop/followerDone exist only
	// in -follow mode; promoted flips once POST /v1/promote succeeds;
	// fenced latches when a pull proves a newer epoch exists (this node
	// was deposed — refuse writes and shipping forever after);
	// replayProg holds the latest edgelog.ReplayProgress for /readyz.
	replMu       sync.Mutex
	follower     *replica.Follower
	followerStop context.CancelFunc
	followerDone chan struct{}
	promoted     bool
	promoteMu    sync.Mutex
	fenced       atomic.Bool
	replayProg   atomic.Value

	// fps caches per-dataset identity fingerprints: shard.Fingerprint is
	// a full O(edges) scan and datasetinfo is called per fan-out, so
	// compute once per loaded graph. Keyed by graph pointer — a reloaded
	// (evicted, re-fetched) graph is a new pointer and re-fingerprints.
	fpMu sync.Mutex
	fps  map[*mint.Graph]string
}

// fingerprintOf returns the cached identity fingerprint for a loaded
// graph, computing it on first sight.
func (s *Server) fingerprintOf(dataset string, g *mint.Graph) string {
	s.fpMu.Lock()
	fp, ok := s.fps[g]
	s.fpMu.Unlock()
	if ok {
		return fp
	}
	fp = shard.Fingerprint(g)
	s.fpMu.Lock()
	if len(s.fps) >= 128 {
		// Evicted-and-reloaded graphs leave dead pointers behind; reset
		// rather than grow without bound (recompute is cheap at this rate).
		s.fps = map[*mint.Graph]string{}
	}
	s.fps[g] = fp
	s.fpMu.Unlock()
	return fp
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.01
	}
	if cfg.EnumerateMaxLimit <= 0 {
		cfg.EnumerateMaxLimit = 1000
	}
	loader := cfg.Loader
	if loader == nil {
		loader = datasetLoader(cfg.DataDir, cfg.Scale)
	}
	s := &Server{
		cfg: cfg,
		obs: cfg.Obs,
		brk: NewBreakerGroup(cfg.Breaker, cfg.Obs),
		fps: map[*mint.Graph]string{},
		front: NewFront(FrontConfig{
			Admission:     cfg.Admission,
			Caps:          cfg.Caps,
			MaxBodyBytes:  cfg.MaxBodyBytes,
			Obs:           cfg.Obs,
			AccessLog:     cfg.AccessLog,
			TraceCapacity: cfg.TraceCapacity,
		}),
	}
	s.data = registry.New(registry.Options{
		Loader:   loader,
		MaxBytes: cfg.RegistryMaxBytes,
		Obs:      cfg.Obs,
	})
	s.routes()
	if cfg.Ingest.Enabled() {
		s.liveReady = make(chan struct{})
		s.liveReplaying.Store(true)
		go s.openLive()
	}
	return s
}

// datasetLoader is the default Loader: Table I names resolved through
// the datasets package (real SNAP files under dir when present,
// deterministic synthetic generation otherwise).
func datasetLoader(dir string, scale float64) registry.Loader {
	return func(ctx context.Context, name string) (*mint.Graph, error) {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownDataset, err)
		}
		return datasets.Load(spec, dir, scale)
	}
}

// Handler returns the server's HTTP handler (the API routes plus
// /healthz, /readyz, /metrics and /debug/trace; mount obs.AttachDebug
// alongside for the rest of /debug/*).
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// Datasets exposes the dataset registry (readiness reporting, tests).
func (s *Server) Datasets() *registry.Registry { return s.data }

// Drain winds the server down through the shared drain lifecycle (see
// Front.Drain), then seals the ingest stream: in-flight work is done,
// so stop the follower pull loop — it appends to the same stream — and
// close the stream, which syncs and releases the WAL so a restart
// replays a clean tail.
func (s *Server) Drain(ctx context.Context) error {
	return s.front.Drain(ctx, func() {
		if !s.cfg.Ingest.Enabled() {
			return
		}
		<-s.liveReady
		s.replMu.Lock()
		stop, fdone := s.followerStop, s.followerDone
		s.replMu.Unlock()
		if stop != nil {
			stop()
			<-fdone
		}
		s.liveMu.Lock()
		st := s.live
		s.live = nil
		s.liveMu.Unlock()
		if st != nil {
			if err := st.Close(); err != nil {
				s.obs.Counter("server.ingest.close_failed").Add(1)
			}
		}
	})
}

// BuildReport assembles the end-of-life RunReport mintd flushes on
// exit: uptime, the full metric state, and the serving identity.
func (s *Server) BuildReport() *obs.RunReport { return s.front.BuildReport() }
