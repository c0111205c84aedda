package main

// The traced run. It builds the workload's topology in this process —
// server.Server and gather.Coordinator behind loopback listeners — and
// times calls into each layer from this file: the HTTP handlers, the
// coordinator's shard client, and direct calls into the engine, shard
// planner, stream and edge log. What it cannot wrap it reads from the
// spans the servers already record (GET /debug/trace/<id>) and from
// their metric registries. It adds no instrumentation to the program.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mint"
	"mint/internal/datasets"
	"mint/internal/edgelog"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
	"mint/internal/server/gather"
	"mint/internal/server/registry"
	"mint/internal/shard"
	"mint/internal/temporal"
)

// call is one timed call into a layer.
type call struct {
	trace string
	path  string
	dur   time.Duration
}

// recorder keeps timed calls while on.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls []call
}

func (r *recorder) add(c call) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

func (r *recorder) byTrace() map[string][]call {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]call{}
	for _, c := range r.calls {
		out[c.trace] = append(out[c.trace], c)
	}
	return out
}

// timedHandler wraps server.Server.Handler or gather.Coordinator.Handler.
type timedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	h.rec.add(call{trace: w.Header().Get("X-Trace-Id"), path: r.URL.Path, dur: time.Since(t0)})
}

// timedTransport wraps the coordinator's shard client (gather.Config.Client).
type timedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	// A traceparent is 00-<trace id>-<span id>-<flags>.
	tp := req.Header.Get("traceparent")
	id := ""
	if len(tp) >= 35 {
		id = tp[3:35]
	}
	t.rec.add(call{trace: id, path: req.URL.Path, dur: time.Since(t0)})
	return resp, err
}

// inproc is the workload's topology inside this process.
type inproc struct {
	servers []*http.Server
	workers []*server.Server
	regs    []*obs.Registry // per worker
	coord   *gather.Coordinator
	coordRg *obs.Registry
	front   string
	live    string
	handler recorder // the front handler: the worker, or the coordinator
	rt      recorder // coordinator → shard round trips
	loadMu  sync.Mutex
	loads   []time.Duration
	dir     string
}

func (t *inproc) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	return "http://" + ln.Addr().String(), nil
}

func (t *inproc) close() {
	for _, s := range t.servers {
		s.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.coord != nil {
		t.coord.Drain(ctx) //nolint:errcheck // shutting down
	}
	for _, w := range t.workers {
		w.Drain(ctx) //nolint:errcheck // shutting down
	}
	os.RemoveAll(t.dir) //nolint:errcheck // scratch space under the work dir
}

// timedLoader is the default dataset loader with its time recorded.
func (t *inproc) timedLoader() registry.Loader {
	return func(ctx context.Context, name string) (*mint.Graph, error) {
		t0 := time.Now()
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", server.ErrUnknownDataset, err)
		}
		g, err := datasets.Load(spec, "", scale)
		t.loadMu.Lock()
		t.loads = append(t.loads, time.Since(t0))
		t.loadMu.Unlock()
		return g, err
	}
}

func caps() runctl.Caps {
	return runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute}
}

// startInproc mirrors startCluster with the same settings mintd's flags
// give the processes.
func startInproc(p *plan, workDir string) (*inproc, error) {
	dir, err := os.MkdirTemp(workDir, "traced-")
	if err != nil {
		return nil, err
	}
	t := &inproc{dir: dir}
	n := 1
	if p.spec.coord {
		n = 3
	}
	var urls []string
	for i := 0; i < n; i++ {
		reg := obs.New(fmt.Sprintf("worker%d", i))
		cfg := server.Config{
			Scale: scale, Workers: mineWorkers, Loader: t.timedLoader(), RegistryMaxBytes: 1 << 30,
			Caps: caps(), Obs: reg, TraceCapacity: 1 << 15,
		}
		if i == 0 {
			cfg.Ingest = server.IngestConfig{
				Dir: filepath.Join(dir, "wal"), Dataset: liveDataset, Window: p.window,
				SyncEvery: 1, SnapshotEvery: snapshotEvery,
			}
		}
		s := server.New(cfg)
		var h http.Handler = &timedHandler{inner: s.Handler(), rec: &t.handler}
		if p.spec.coord {
			h = s.Handler() // the coordinator's handler is the front
		}
		u, err := t.serve(h)
		if err != nil {
			t.close()
			return nil, err
		}
		t.workers = append(t.workers, s)
		t.regs = append(t.regs, reg)
		urls = append(urls, u)
	}
	t.front, t.live = urls[0], urls[0]
	if p.spec.coord {
		c, u, err := t.startCoord(urls, &t.handler)
		if err != nil {
			t.close()
			return nil, err
		}
		t.coord, t.front = c, u
		urls = append(urls, u)
	}
	if err := ready(urls, p); err != nil {
		t.close()
		return nil, err
	}
	if err := newClient(p, t.front, t.live).prefill(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *inproc) startCoord(shards []string, rec *recorder) (*gather.Coordinator, string, error) {
	t.coordRg = obs.New("coordinator")
	c, err := gather.New(gather.Config{
		Shards:        shards,
		Client:        &http.Client{Transport: &timedTransport{base: http.DefaultTransport, rec: &t.rt}},
		Caps:          caps(),
		Obs:           t.coordRg,
		TraceCapacity: 1 << 15,
	})
	if err != nil {
		return nil, "", err
	}
	u, err := t.serve(&timedHandler{inner: c.Handler(), rec: rec})
	return c, u, err
}

// span is one event of a /debug/trace/<id> document.
type span struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Args struct {
		SpanID   string `json:"span_id"`
		ParentID string `json:"parent_id"`
	} `json:"args"`
}

func fetchSpans(hc *http.Client, base, id string) ([]span, error) {
	resp, err := hc.Get(base + "/debug/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	var out []span
	for _, s := range doc.TraceEvents {
		if s.Ph == "X" {
			out = append(out, s)
		}
	}
	return out, nil
}

// layerSpans (and every mine* span) are the request-level spans the
// servers record beneath their root span; their union is the time some
// layer accounts for.
var layerSpans = []string{"admission.wait", "registry.checkout", "breaker.decision",
	"gather.plan", "shard.call", "ingest.append", "ingest.register"}

func isLayer(name string) bool {
	if strings.HasPrefix(name, "mine") {
		return true
	}
	for _, l := range layerSpans {
		if name == l {
			return true
		}
	}
	return false
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Ts < ss[j].Ts })
	var total, end float64
	for i, s := range ss {
		if i == 0 || s.Ts > end {
			total += s.Dur
			end = s.Ts + s.Dur
			continue
		}
		if e := s.Ts + s.Dur; e > end {
			total += e - end
			end = e
		}
	}
	return total
}

type layerStats struct {
	self, admission, checkout []float64
	tracked, e2e              float64
}

// analyze reads the traced requests' spans.
func (t *inproc) analyze(hc *http.Client, ss []sample) (*layerStats, error) {
	ls := &layerStats{}
	for _, s := range ss {
		if !s.ok || s.trace == "" {
			continue
		}
		base := t.front
		if s.class == "ingest" || s.class == "live" {
			base = t.live
		}
		spans, err := fetchSpans(hc, base, s.trace)
		if err != nil {
			return nil, err
		}
		// The request's root span has no parent; a worker's root span is
		// its http.<route> span, under a shard.call when a coordinator
		// sent the request.
		var root span
		roots := map[int]span{}
		mine := map[int]float64{}
		var top []span
		for _, sp := range spans {
			if sp.Args.ParentID == "" {
				root = sp
			}
			switch {
			case strings.HasPrefix(sp.Name, "http."):
				roots[sp.Pid] = sp
			case sp.Name == "admission.wait":
				ls.admission = append(ls.admission, sp.Dur/1000)
			case sp.Name == "registry.checkout":
				ls.checkout = append(ls.checkout, sp.Dur/1000)
			}
			if strings.HasPrefix(sp.Name, "mine") && !strings.Contains(sp.Name, ".worker") {
				mine[sp.Pid] += sp.Dur
			}
		}
		for _, sp := range spans {
			if isLayer(sp.Name) && sp.Args.ParentID == root.Args.SpanID {
				top = append(top, sp)
			}
		}
		// Self time of a mining server: its root span less its engine spans.
		for pid, root := range roots {
			if m, ok := mine[pid]; ok {
				ls.self = append(ls.self, (root.Dur-m)/1000)
			}
		}
		e2e := float64(s.done.Sub(s.sent).Microseconds())
		ls.e2e += e2e
		ls.tracked += min(covered(top), e2e)
	}
	return ls, nil
}

func runTraced(sp *spec, seed int64, dur time.Duration, workDir string) (*result, map[string]any, error) {
	// The servers share this process here, so they share its collector
	// setting with the generator.
	debug.SetGCPercent(serverGOGC)
	p, err := newPlan(sp, seed, 200)
	if err != nil {
		return nil, nil, err
	}
	if err := p.computeOracle(); err != nil {
		return nil, nil, err
	}
	t, err := startInproc(p, workDir)
	if err != nil {
		return nil, nil, err
	}
	defer t.close()
	c := newClient(p, t.front, t.live)
	if err := c.discover(); err != nil {
		return nil, nil, err
	}
	c.warm()
	conns := runtime.NumCPU()
	pass := dur / 3
	m := newMetrics()

	// Untraced pass: nothing wrapped records; process costs measured.
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) //nolint:errcheck // cannot fail for SELF
	runtime.ReadMemStats(&ms0)
	plain := openLoop(conns, sp.rate, pass, c.exec)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1) //nolint:errcheck // cannot fail for SELF
	runtime.ReadMemStats(&ms1)
	cpu := time.Duration(syscall.TimevalToNsec(ru1.Utime) + syscall.TimevalToNsec(ru1.Stime) -
		syscall.TimevalToNsec(ru0.Utime) - syscall.TimevalToNsec(ru0.Stime))
	m.set("proc.cpu_ms_per_req", "ms", ms(cpu)/float64(len(plain)))
	m.set("proc.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	m.set("gen.late_ms_p90", "ms", lateP90(plain))
	bytes, nq := 0, 0
	for _, s := range plain {
		if s.class != "ingest" {
			bytes += s.bytes
			nq++
		}
	}
	m.set("server.resp_bytes_per_req", "bytes", ratio(float64(bytes), float64(nq)))

	// Traced pass: the same sequence with every wrapper recording.
	before := snapshots(t)
	t.handler.on.Store(true)
	t.rt.on.Store(true)
	traced := openLoop(conns, sp.rate, pass, c.exec)
	t.handler.on.Store(false)
	t.rt.on.Store(false)
	after := snapshots(t)
	m.set("trace.overhead_ratio", "ratio", ratio(serviceMedian(traced), serviceMedian(plain)))

	ls, err := t.analyze(c.hc, traced)
	if err != nil {
		return nil, nil, err
	}
	m.pct("server.self_ms_p50", ls.self, 0.5)
	m.pct("server.admission_wait_ms_p90", ls.admission, 0.9)
	m.pct("registry.checkout_ms_p50", ls.checkout, 0.5)
	m.set("untracked_share", "ratio", 1-ratio(ls.tracked, ls.e2e))
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	m.set("registry.hit_ratio", "ratio", ratio(d("registry.hit"), d("registry.hit")+d("registry.load")+d("registry.join")))
	m.set("stream.stale_ratio", "ratio", ratio(d("stream.integrations_stale"), d("stream.integrations")))
	m.set("edgelog.fsyncs_per_append", "count", ratio(d("edgelog.fsyncs"), d("edgelog.appends")))
	var loads time.Duration
	for _, l := range t.loads {
		loads += l
	}
	m.set("registry.load_ms", "ms", ms(loads)/float64(len(t.workers)))

	// The coordinator: traced traffic on query-coord, else a probe
	// through a one-shard coordinator over the same worker.
	requests := 0
	for _, s := range traced {
		if s.class == "count" || s.class == "batch" || s.class == "enum" {
			requests++
		}
	}
	coordBefore, coordAfter := before, after
	front := t.handler.byTrace()
	if !sp.coord {
		var err error
		front, requests, coordBefore, coordAfter, err = t.probeGather(c)
		if err != nil {
			return nil, nil, err
		}
	}
	gatherMetrics(m, front, t.rt.byTrace())
	cd := func(name string) float64 { return float64(coordAfter["coord:"+name] - coordBefore["coord:"+name]) }
	m.set("gather.retries", "count/req", ratio(cd("gather.retry"), float64(requests)))
	m.set("gather.hedges", "count/req", ratio(cd("gather.hedged"), float64(requests)))
	m.set("gather.shard_failed", "count/req", ratio(cd("gather.shard_failed"), float64(requests)))

	if err := engineProbe(m, p); err != nil {
		return nil, nil, err
	}
	if err := streamProbe(m, p, t.dir); err != nil {
		return nil, nil, err
	}

	model := c.verifyStream()
	checks := c.finalCheck(model)
	if m.err != nil {
		return nil, nil, m.err
	}
	res := &result{Metrics: m.m, Attempted: len(plain) + len(traced) + checks, Correct: c.wrong == 0}
	for _, s := range append(plain, traced...) {
		if !s.ok {
			res.Failed++
		}
	}
	res.Failed += c.wrong
	for _, pr := range c.problems {
		fmt.Fprintln(os.Stderr, "mintbench:", pr)
	}
	env := environment(sp, seed, workDir)
	env["traced"] = map[string]any{"pass_seconds": pass.Seconds(), "connections": conns, "in_process": true}
	return res, env, nil
}

// serviceMedian is the median of send-to-answer times, which leaves
// out the open-loop queueing that both passes share.
func serviceMedian(ss []sample) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, ms(s.done.Sub(s.sent)))
	}
	return median(xs)
}

// snapshots folds every registry's counters; the coordinator's carry a
// "coord:" prefix.
func snapshots(t *inproc) map[string]int64 {
	out := map[string]int64{}
	for _, r := range t.regs {
		for k, v := range r.Snapshot().Counters {
			out[k] += v
		}
	}
	if t.coordRg != nil {
		for k, v := range t.coordRg.Snapshot().Counters {
			out["coord:"+k] += v
		}
	}
	return out
}

// gatherMetrics derives the coordinator metrics from the handler and
// round-trip timings of the same requests.
func gatherMetrics(m *metrics, front, rts map[string][]call) {
	var calls, self, skew []float64
	for id, hs := range front {
		var ds []float64
		for _, c := range rts[id] {
			if c.path == "/v1/count" || c.path == "/v1/enumerate" {
				ds = append(ds, ms(c.dur))
			}
		}
		if len(ds) == 0 || len(hs) != 1 {
			continue
		}
		calls = append(calls, ds...)
		sort.Float64s(ds)
		self = append(self, ms(hs[0].dur)-ds[len(ds)-1])
		skew = append(skew, ratio(ds[len(ds)-1], median(ds)))
	}
	m.pct("gather.shard_call_ms_p50", calls, 0.5)
	m.pct("gather.shard_call_ms_p90", calls, 0.9)
	m.pct("gather.self_ms_p50", self, 0.5)
	m.set("gather.shard_skew", "ratio", median(skew))
}

// probeGather sends every static template five times through a
// one-shard coordinator over the workload's worker.
func (t *inproc) probeGather(c *client) (map[string][]call, int, map[string]int64, map[string]int64, error) {
	var rec recorder
	co, u, err := t.startCoord([]string{t.front}, &rec)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	t.coord = co
	pc := newClient(c.p, u, t.live)
	if err := pc.discover(); err != nil {
		return nil, 0, nil, nil, err
	}
	before := snapshots(t)
	rec.on.Store(true)
	t.rt.on.Store(true)
	n := 0
	for r := 0; r < 5; r++ {
		for _, tm := range c.p.counts {
			pc.count(tm)
			n++
		}
		for _, tm := range c.p.batch {
			pc.batch(tm)
			n++
		}
		for _, tm := range c.p.enums {
			pc.enum(tm)
			n++
		}
	}
	rec.on.Store(false)
	t.rt.on.Store(false)
	after := snapshots(t)
	c.mu.Lock()
	c.wrong += pc.wrong
	c.problems = append(c.problems, pc.problems...)
	c.mu.Unlock()
	return rec.byTrace(), n, before, after, nil
}

// engineProbe times the engine entry points directly on the plan's
// graphs: single counts, enumerate pages, co-mined batches and shard
// planning.
func engineProbe(m *metrics, p *plan) error {
	ctx := context.Background()
	var counts []float64
	var stats mint.MineStats
	calls := 0
	for len(counts) < 100 {
		for _, t := range p.counts {
			mo, err := mint.MotifByName(t.Motif, mint.Timestamp(t.Delta))
			if err != nil {
				return err
			}
			t0 := time.Now()
			r, err := mint.CountParallelCtx(ctx, p.graphs[t.Dataset], mo, mineWorkers, mint.Budget{})
			counts = append(counts, ms(time.Since(t0)))
			if err != nil || r.Matches != t.want {
				return fmt.Errorf("engine probe %s %s: %d matches, oracle %d (%v)", t.Dataset, t.Motif, r.Matches, t.want, err)
			}
			stats.Add(r.Stats)
			calls++
		}
	}
	m.pct("engine.count_ms_p50", counts, 0.5)
	m.pct("engine.count_ms_p90", counts, 0.9)
	m.set("mackey.nodes_expanded_per_req", "count", float64(stats.NodesExpanded)/float64(calls))
	m.set("search.cache_hit_ratio", "ratio", ratio(float64(stats.SearchCacheHits), float64(stats.SearchCacheHits+stats.SearchCacheMisses)))

	var enums []float64
	for len(enums) < 24 {
		for _, t := range p.enums {
			mo, err := mint.MotifByName(t.Motif, mint.Timestamp(t.Delta))
			if err != nil {
				return err
			}
			t0 := time.Now()
			mint.EnumerateCtx(ctx, p.graphs[t.Dataset], mo, mint.Budget{MaxMatches: int64((t.Page + 1) * enumLimit)}, func([]int32) {})
			enums = append(enums, ms(time.Since(t0)))
		}
	}
	m.pct("engine.enum_ms_p50", enums, 0.5)

	var batches []float64
	var shared, expanded int64
	for len(batches) < 24 {
		for _, t := range p.batch {
			var motifs []*mint.Motif
			for _, name := range t.Motifs {
				mo, err := mint.MotifByName(name, mint.Timestamp(t.Delta))
				if err != nil {
					return err
				}
				motifs = append(motifs, mo)
			}
			t0 := time.Now()
			r, err := mint.CountManyCtx(ctx, p.graphs[t.Dataset], motifs, mineWorkers, mint.Budget{})
			batches = append(batches, ms(time.Since(t0)))
			if err != nil {
				return err
			}
			shared += r.SharedExpansions
			expanded += r.Stats.NodesExpanded
		}
	}
	m.pct("comine.batch_ms_p50", batches, 0.5)
	m.set("comine.shared_ratio", "ratio", ratio(float64(shared), float64(expanded)))

	// Planning takes well under a microsecond, so each sample times a
	// thousand calls.
	var plans []float64
	for r := 0; r < 2; r++ {
		for _, t := range p.counts {
			t0 := time.Now()
			for k := 0; k < 1000; k++ {
				shard.PlanForGraph(p.graphs[t.Dataset], 3, temporal.Timestamp(t.Delta))
			}
			plans = append(plans, ms(time.Since(t0))/1000)
		}
	}
	m.pct("shard.plan_ms", plans, 0.5)
	return nil
}

// streamProbe replays the live stream through two fresh streams, one
// with the standing queries and one without, and through a bare edge
// log, timing each call.
func streamProbe(m *metrics, p *plan, dir string) error {
	ctx := context.Background()
	open := func(name string) (*mint.Stream, error) {
		st, _, err := mint.OpenStream(filepath.Join(dir, name), mint.StreamOptions{
			Window: mint.Timestamp(p.window), Workers: mineWorkers, SnapshotEvery: -1, SyncEvery: 1,
		})
		if err != nil {
			return nil, err
		}
		for i, b := range p.prefill {
			if _, err := st.Append(ctx, "prefill", uint64(i+1), b); err != nil {
				st.Close()
				return nil, err
			}
		}
		return st, nil
	}
	withQ, err := open("standing")
	if err != nil {
		return err
	}
	defer withQ.Close()
	for _, name := range liveMotifs {
		mo, err := mint.MotifByName(name, 3600)
		if err != nil {
			return err
		}
		if _, err := withQ.Register(ctx, "s-"+name, mo); err != nil {
			return err
		}
	}
	bare, err := open("bare")
	if err != nil {
		return err
	}
	defer bare.Close()
	reg := obs.New("edgelog-probe")
	log, _, err := edgelog.Open(filepath.Join(dir, "log"), edgelog.Options{SyncEvery: 1, Obs: reg})
	if err != nil {
		return err
	}
	defer log.Close()

	model := &liveModel{window: p.window}
	for _, b := range p.prefill {
		model.apply(b)
	}
	const n = 120
	var appends, folds, builds, snaps, logs []float64
	edges := 0
	for i := 0; i < n && i < len(p.batches); i++ {
		b := p.batches[i]
		t0 := time.Now()
		if _, err := withQ.Append(ctx, "bench", uint64(i+1), b); err != nil {
			return err
		}
		a := time.Since(t0)
		t0 = time.Now()
		if _, err := bare.Append(ctx, "bench", uint64(i+1), b); err != nil {
			return err
		}
		plain := time.Since(t0)
		// The read-after-write graph build: what a live read pays when the
		// registry has dropped the live graph.
		model.apply(b)
		t0 = time.Now()
		if _, err := temporal.NewGraph(model.edges); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		appends = append(appends, ms(a))
		folds = append(folds, ms(a-plain))
		t0 = time.Now()
		if _, _, err := log.Append("bench", uint64(i+1), b); err != nil {
			return err
		}
		logs = append(logs, ms(time.Since(t0)))
		edges += len(b)
		if (i+1)%(n/4) == 0 {
			t0 = time.Now()
			if err := withQ.Snapshot(); err != nil {
				return err
			}
			snaps = append(snaps, ms(time.Since(t0)))
		}
	}
	for _, sc := range withQ.Standing() {
		if sc.Stale {
			return fmt.Errorf("stream probe: standing %s went stale: %s", sc.Name, sc.Reason)
		}
	}
	m.pct("stream.append_ms_p50", appends, 0.5)
	m.pct("stream.append_ms_p90", appends, 0.9)
	m.pct("stream.fold_ms_p50", folds, 0.5)
	m.pct("stream.graph_build_ms", builds, 0.5)
	m.set("stream.snapshot_ms", "ms", median(snaps))
	m.set("stream.live_edges", "count", float64(withQ.Info().Edges))
	m.pct("edgelog.append_ms_p50", logs, 0.5)
	m.pct("edgelog.append_ms_p90", logs, 0.9)
	var size int64
	entries, err := os.ReadDir(filepath.Join(dir, "log"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".seg") {
			size += info.Size()
		}
	}
	m.set("edgelog.bytes_per_edge", "bytes", ratio(float64(size), float64(edges)))
	return nil
}
