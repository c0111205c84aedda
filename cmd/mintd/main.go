// Command mintd is the long-lived temporal-motif mining service: the
// serving layer over the exact miner, the PRESTO estimator, and the
// fault-tolerant supervisor.
//
// Endpoints (JSON over HTTP):
//
//	POST /v1/count      — motif count: exact within budget, degraded
//	                      ("degraded": true, engine "presto") past it
//	POST /v1/enumerate  — concrete matches, bounded and paginated
//	POST /v1/profile    — M1–M4 profile of a dataset
//	POST /v1/edges      — append an edge batch to the live dataset
//	                      (-ingest-dir; durable WAL ack, idempotent via
//	                      client_id + client_seq)
//	POST /v1/standing   — register a standing motif count on the live
//	                      dataset, maintained incrementally per append
//	GET  /v1/standing   — the standing-query board (DELETE
//	                      /v1/standing/<name> unregisters)
//	GET  /healthz       — liveness (always 200 while the process runs)
//	GET  /readyz        — readiness (503 once draining, or while the
//	                      ingest WAL is still replaying at startup)
//	GET  /metrics       — Prometheus text exposition of the obs registry
//	GET  /debug/vars    — live expvar metrics; /debug/pprof/ alongside
//	GET  /debug/trace/<id> — one request's merged Chrome trace
//
// Every request carries a distributed trace: an incoming traceparent or
// X-Request-ID is honored (else an id is minted), echoed on X-Trace-Id
// (shed and drain responses included), propagated on coordinator→shard
// calls, and retrievable as a merged cross-process Chrome trace from
// /debug/trace/<id>. Requests with "explain": true get the span tree
// inline. -access-log writes one JSON line per request.
//
// Robustness model: a bounded admission queue sheds excess load with
// 429 + Retry-After (low-priority traffic first); every request runs
// under a budget derived from its own timeout clamped by server caps;
// repeated panics or injected faults trip a per-(dataset, motif)
// circuit breaker that routes the workload to the sampling path until
// it cools down; SIGTERM/SIGINT starts a graceful drain — readiness
// flips, the queue empties, in-flight requests finish (or checkpoint,
// for supervised requests) inside -drain-timeout, the obs report is
// flushed, and the process exits 0.
//
// Coordinator mode (-coordinator -shards=<url,...>) turns the process
// into a scatter-gather front: requests are partitioned into δ-aware
// per-shard root windows, fanned out over worker mintd processes with
// bounded retries, hedged stragglers, and per-shard circuit breakers,
// and merged under the same response contract — a dead shard makes the
// merged answer loudly partial (missing shards named), never silently
// short. /readyz reflects shard quorum.
//
// Streaming ingestion (-ingest-dir) serves one mutable "live" dataset
// backed by a crash-safe segmented WAL: POST /v1/edges batches are
// fsynced (per -ingest-sync) before they are acknowledged, a restart
// replays the log — /readyz stays 503 "replaying" until the graph is
// caught up — and registered standing queries fold each batch
// incrementally, bit-identical to a cold full mine.
//
// Usage:
//
//	mintd -listen :7465
//	mintd -listen :7465 -scale 0.05 -inflight 8 -queue 32 -max-timeout 30s
//	mintd -listen :7465 -ingest-dir /var/lib/mint/wal -ingest-window 86400
//	mintd -listen :7464 -coordinator -shards http://h1:7465,http://h2:7465,http://h3:7465
//	curl -s localhost:7465/v1/count -d '{"dataset":"wiki-talk","motif":"M1"}'
//	curl -s localhost:7465/v1/edges -d '{"client_id":"c1","client_seq":1,"edges":[{"src":1,"dst":2,"time":100}]}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mint"
	"mint/internal/edgelog"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/server/gather"
)

// serving is the common surface of the two process modes (worker
// server.Server, coordinator gather.Coordinator): the drain ladder at
// the bottom of main drives either through it.
type serving interface {
	Handler() http.Handler
	Drain(ctx context.Context) error
	BuildReport() *obs.RunReport
}

func main() {
	listen := flag.String("listen", ":7465", "serve the mining API on this address")
	obsListen := flag.String("obs.listen", "", "serve a second expvar/pprof listener on this address (the main listener already exposes /debug/*)")
	dataDir := flag.String("datadir", "", "directory with real SNAP dataset files (<name>.txt); synthetic generation otherwise")
	scale := flag.Float64("scale", 0.01, "synthetic dataset scale (0,1]")
	workers := flag.Int("workers", 0, "per-request mining parallelism (0 = GOMAXPROCS)")
	inflight := flag.Int("inflight", 0, "max concurrently mining requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max waiting requests before load shedding (0 = 4x inflight)")
	maxWait := flag.Duration("max-wait", 10*time.Second, "max time one request may wait in the admission queue")
	defaultTimeout := flag.Duration("default-timeout", 10*time.Second, "budget for requests that send no timeout")
	maxTimeout := flag.Duration("max-timeout", time.Minute, "hard cap on any request's timeout")
	maxNodes := flag.Int64("max-nodes", 0, "hard cap on per-request search-tree expansions (0 = none)")
	enumLimit := flag.Int("enumerate-max-limit", 1000, "max matches per enumerate page")
	registryMax := flag.Int64("registry-max-bytes", 1<<30, "dataset cache watermark in bytes (0 = unbounded)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that trip a workload breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker degrades its workload")
	checkpointDir := flag.String("checkpoint-dir", "", "enable supervised requests; checkpoints land here")
	chaosSpec := flag.String("chaos", "", "fault-injection plan, e.g. \"seed=1,panic=0.01,sites=mackey\"; engine sites: mackey.chunk, mackey.root, task.root, task.queue, mint.cycle; WAL sites: edgelog.append, edgelog.fsync, edgelog.rotate, edgelog.replay, edgelog.compact (testing)")
	ingestDir := flag.String("ingest-dir", "", "enable streaming ingestion: crash-safe edge WAL directory for the live dataset")
	liveDataset := flag.String("live-dataset", "live", "dataset name the ingest stream serves on the mining endpoints")
	ingestWindow := flag.Int64("ingest-window", 0, "sliding retention window for the live dataset, in dataset time units (0 = keep every edge)")
	ingestSync := flag.String("ingest-sync", "always", "WAL fsync policy: \"always\" (every append), \"none\" (OS flush), or N (every Nth append)")
	ingestSegBytes := flag.Int64("ingest-segment-bytes", 0, "WAL segment rotation threshold in bytes (0 = default 4MiB)")
	ingestSnapEvery := flag.Int("ingest-snapshot-every", 0, "WAL snapshot + compaction cadence in accepted appends (0 = default 256, <0 = never)")
	ingestMaxBatch := flag.Int("ingest-max-batch", 0, "max edges per POST /v1/edges batch (0 = default 1Mi edges)")
	follow := flag.String("follow", "", "run as a hot standby of the primary mintd at this base URL (requires -ingest-dir): WAL records are replicated into the local log, writes answer 409, /readyz waits for fingerprint-verified catch-up, POST /v1/promote flips to primary")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "max JSON request body size in bytes on every endpoint (0 = default 64MiB)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "grace for in-flight requests after SIGTERM before their contexts are canceled")
	reportPath := flag.String("report", "", "write the end-of-life RunReport JSON here on drain")
	coordinator := flag.Bool("coordinator", false, "run as a scatter-gather coordinator over -shards instead of mining locally")
	shards := flag.String("shards", "", "comma-separated worker base URLs for -coordinator mode; an entry may be a '|'-separated replica set (\"http://a1|http://a2\") the coordinator fails over within")
	shardAttempts := flag.Int("shard-attempts", 3, "coordinator: max attempts per shard call")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator: duplicate a shard call after this long without a response (0 = no hedging)")
	quorum := flag.Int("quorum", 0, "coordinator: healthy shards readyz requires (0 = majority)")
	sliced := flag.Bool("sliced", false, "coordinator: workers each serve only their own δ-aware data slice")
	mergeMargin := flag.Duration("merge-margin", 200*time.Millisecond, "coordinator: wall headroom reserved from shard deadlines for the merge")
	accessLog := flag.String("access-log", "", "write one JSON access-log line per request here (\"-\" = stdout)")
	traceCap := flag.Int("trace-capacity", 256, "recent request traces retained for /debug/trace/<id>")
	flag.Parse()

	var alogW io.Writer
	switch *accessLog {
	case "":
	case "-":
		alogW = os.Stdout
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		alogW = f
	}

	// Validate operator input before any heavy lifting: a typo in the
	// chaos plan or the WAL sync policy must fail at startup with the
	// item named, not after datasets load or the edge log replays.
	var plan *mint.ChaosPlan
	if *chaosSpec != "" {
		var err error
		if plan, err = mint.ParseChaosPlan(*chaosSpec); err != nil {
			fatal(err)
		}
	}
	syncEvery, err := edgelog.ParseSyncPolicy(*ingestSync)
	if err != nil {
		fatal(err)
	}

	reg := obs.New("mintd")
	var srv serving
	if *coordinator {
		var urls []string
		for _, u := range strings.Split(*shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fatal(fmt.Errorf("-coordinator needs -shards=<url,url,...>"))
		}
		if *chaosSpec != "" {
			fatal(fmt.Errorf("-chaos injects faults into mining engines; the coordinator has none — set it on the workers"))
		}
		if *ingestDir != "" {
			fatal(fmt.Errorf("-ingest-dir is a worker feature; the coordinator serves no local datasets — set it on a worker"))
		}
		if *follow != "" {
			fatal(fmt.Errorf("-follow is a worker feature; the coordinator replicates nothing — set it on a standby worker"))
		}
		c, err := gather.New(gather.Config{
			Shards:      urls,
			MaxAttempts: *shardAttempts,
			HedgeAfter:  *hedgeAfter,
			Quorum:      *quorum,
			Sliced:      *sliced,
			MergeMargin: *mergeMargin,
			Caps: runctl.Caps{
				DefaultTimeout: *defaultTimeout,
				MaxTimeout:     *maxTimeout,
				MaxNodes:       *maxNodes,
			},
			Admission: server.AdmissionConfig{
				MaxInflight: *inflight,
				MaxQueue:    *queue,
				MaxWait:     *maxWait,
			},
			Breaker: server.BreakerConfig{
				Threshold: *breakerThreshold,
				Cooldown:  *breakerCooldown,
			},
			EnumerateMaxLimit: *enumLimit,
			MaxBodyBytes:      *maxBodyBytes,
			Obs:               reg,
			AccessLog:         alogW,
			TraceCapacity:     *traceCap,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mintd: coordinator over %d shards: %s\n", len(urls), strings.Join(urls, ", "))
		srv = c
	} else {
		if *follow != "" && *ingestDir == "" {
			fatal(fmt.Errorf("-follow needs -ingest-dir: the standby replays the primary's records into its OWN crash-safe WAL"))
		}
		cfg := server.Config{
			DataDir:          *dataDir,
			Scale:            *scale,
			Workers:          *workers,
			RegistryMaxBytes: *registryMax,
			Caps: runctl.Caps{
				DefaultTimeout: *defaultTimeout,
				MaxTimeout:     *maxTimeout,
				MaxNodes:       *maxNodes,
			},
			Admission: server.AdmissionConfig{
				MaxInflight: *inflight,
				MaxQueue:    *queue,
				MaxWait:     *maxWait,
			},
			Breaker: server.BreakerConfig{
				Threshold: *breakerThreshold,
				Cooldown:  *breakerCooldown,
			},
			EnumerateMaxLimit: *enumLimit,
			MaxBodyBytes:      *maxBodyBytes,
			CheckpointDir:     *checkpointDir,
			Ingest: server.IngestConfig{
				Dir:           *ingestDir,
				Dataset:       *liveDataset,
				Window:        *ingestWindow,
				SyncEvery:     syncEvery,
				SegmentBytes:  *ingestSegBytes,
				SnapshotEvery: *ingestSnapEvery,
				MaxBatchEdges: *ingestMaxBatch,
				Follow:        strings.TrimRight(*follow, "/"),
			},
			Obs:           reg,
			AccessLog:     alogW,
			TraceCapacity: *traceCap,
		}
		if plan != nil {
			cfg.Chaos = plan
			fmt.Printf("mintd: chaos enabled: %s\n", plan)
		}
		ss := server.New(cfg)
		if cfg.Ingest.Enabled() {
			// Replay runs off the serving path: the listener comes up now,
			// /readyz answers "replaying" until the WAL is caught up, and
			// the outcome lands in the log either way.
			go func() {
				rec, err := ss.IngestRecovery()
				if err != nil {
					fmt.Fprintf(os.Stderr, "mintd: ingest: opening WAL %s failed: %v\n", *ingestDir, err)
					return
				}
				fmt.Printf("mintd: ingest: %q replayed %d records (snapshot seq %d) from %s\n",
					cfg.Ingest.Name(), rec.Records, rec.SnapshotSeq, *ingestDir)
				if rec.Truncated {
					fmt.Printf("mintd: ingest: WARNING: torn WAL tail truncated during replay: %s\n", rec.Detail)
				}
				if cfg.Ingest.Follow != "" {
					fmt.Printf("mintd: replica: following %s (reads gate on catch-up; POST /v1/promote to take over)\n", cfg.Ingest.Follow)
				}
			}()
		}
		srv = ss
	}

	// One mux: the API plus the obs debug endpoints, so a single port
	// serves traffic, health, metrics, and profiles.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	obs.AttachDebug(mux, reg)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// Subscribe to the drain signal before announcing the address: a
	// client may signal as soon as it sees the server serving.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	httpSrv := &http.Server{Handler: mux}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	fmt.Printf("mintd: serving on http://%s (try /readyz, /debug/vars)\n", ln.Addr())

	// Optional second listener, e.g. metrics on an internal-only port.
	var obsSrv *obs.Server
	if *obsListen != "" {
		obsSrv, err = obs.Serve(*obsListen, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mintd: obs listener on http://%s/debug/vars\n", obsSrv.Addr())
	}

	// Wait for the drain signal.
	sig := <-sigCh
	fmt.Printf("mintd: %s received, draining (grace %v)\n", sig, *drainTimeout)

	// Drain ladder: stop admitting and finish (or checkpoint) in-flight
	// work, then close the listeners, then flush the report. The order
	// matters: readiness must flip before the listener dies so load
	// balancers stop routing here, and the report must be last so it
	// sees the drain counters.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mintd: drain:", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "mintd: http shutdown:", err)
	}
	if err := obsSrv.Shutdown(shutCtx); err != nil { // nil-safe
		fmt.Fprintln(os.Stderr, "mintd: obs shutdown:", err)
	}
	if *reportPath != "" {
		if err := srv.BuildReport().WriteFile(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "mintd: report:", err)
			os.Exit(1)
		}
		fmt.Printf("mintd: report flushed to %s\n", *reportPath)
	}
	fmt.Println("mintd: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mintd:", err)
	os.Exit(1)
}
