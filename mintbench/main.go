// Command mintbench is the repository's serving benchmark. It drives
// real mintd processes over loopback from one load-generator process,
// checks every answer against the library miner, and prints one JSON
// result line. See README.md and BENCHMARK.json at the repository root.
//
// Usage (from the repository root, through run.sh, which builds mintd
// and this command first):
//
//	bash mintbench/run.sh --workload query-worker --seed 1 --seconds 24 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median.
const setupRepeats = 3

// openShare is the part of the measured time the open-loop phase takes;
// the closed-loop phase takes the rest.
const openShare = 3.0 / 4

// limits are the per-class latency limits goodput counts against.
var limits = map[string]time.Duration{
	"count":  300 * time.Millisecond,
	"batch":  600 * time.Millisecond,
	"enum":   150 * time.Millisecond,
	"ingest": 250 * time.Millisecond,
	"live":   250 * time.Millisecond,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: query-worker, query-coord or ingest-live")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 36, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: print the per-layer metrics of an in-process traced run instead")
	bin := flag.String("mintd", ".bench_build/mintd", "mintd binary built from the tree under test")
	workDir := flag.String("workdir", ".bench_build", "scratch directory for WAL files")
	spinner := flag.Bool("spin", false, "internal: run as an idle-class spinner (see spin.go)")
	flag.Parse()
	if *spinner {
		spin()
	}
	sp, err := specByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	dur := time.Duration(*seconds) * time.Second
	spinning, err := startSpinners()
	if err != nil {
		fatal(err)
	}
	var res *result
	var env map[string]any
	if *trace == 1 {
		res, env, err = runTraced(sp, *seed, dur, *workDir)
	} else {
		res, env, err = runServed(sp, *seed, dur, *bin, *workDir)
	}
	spinning.stop()
	if err != nil {
		fatal(err)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mintbench:", err)
	os.Exit(2)
}

// runServed is the untraced run: real mintd processes, end-to-end
// metrics.
func runServed(sp *spec, seed int64, dur time.Duration, bin, workDir string) (*result, map[string]any, error) {
	// The generator's own collections would stall its schedule; the
	// servers are separate processes with their own setting.
	debug.SetGCPercent(400)
	p, err := newPlan(sp, seed, 200)
	if err != nil {
		return nil, nil, err
	}
	if err := p.computeOracle(); err != nil {
		return nil, nil, err
	}
	var setups []float64
	var cl *cluster
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c, err := startCluster(bin, p, workDir)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			c.stop()
			continue
		}
		cl = c
	}
	defer cl.stop()

	c := newClient(p, cl.front, cl.live)
	if err := c.discover(); err != nil {
		return nil, nil, err
	}
	c.warm()
	conns := runtime.NumCPU()
	openDur := time.Duration(float64(dur) * openShare)
	cpu0, _ := cl.cpuSeconds()
	steal0, total0 := cpuSteal()
	open := openLoop(conns, sp.rate, openDur, c.exec)
	steal1, total1 := cpuSteal()
	cpu1, _ := cl.cpuSeconds()
	closedDur := dur - openDur
	t0 := time.Now()
	closed := closedLoop(conns, int(sp.rate*openDur.Seconds()), closedDur, c.exec)
	closedDur = time.Since(t0)
	model := c.verifyStream()
	checks := c.finalCheck(model)
	rss, err := cl.peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	cl.stop()

	fmt.Fprintf(os.Stderr, "mintbench: %s seed %d: set-up %.2fs, server cpu %.2f cores, steal %.3f\n  open loop %s\n  closed loop %s\n",
		sp.name, seed, median(setups), (cpu1-cpu0)/openDur.Seconds(), ratio(steal1-steal0, total1-total0), describe(open), describe(closed))
	m := newMetrics()
	m.set("setup_s", "s", median(setups))
	m.set("peak_rss_mb", "MiB", rss)
	byClass := latencies(open)
	m.pct("count_p50_ms", byClass["count"], 0.5)
	m.pct("count_p90_ms", byClass["count"], 0.9)
	m.pct("batch_p50_ms", byClass["batch"], 0.5)
	m.pct("batch_p90_ms", byClass["batch"], 0.9)
	m.pct("enum_p50_ms", byClass["enum"], 0.5)
	m.pct("ingest_p50_ms", byClass["ingest"], 0.5)
	m.pct("ingest_p90_ms", byClass["ingest"], 0.9)
	m.pct("live_count_p50_ms", byClass["live"], 0.5)
	m.pct("live_count_p90_ms", byClass["live"], 0.9)
	// Goodput divides by the phase as it ran, from the first due time to
	// the last answer, not by its nominal length.
	good := 0
	first, last := open[0].due, open[0].done
	for _, s := range open {
		if s.ok && s.latency() <= limits[s.class] {
			good++
		}
		if !s.due.IsZero() && s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	m.set("goodput_rps", "req/s", float64(good)/last.Sub(first).Seconds())
	okClosed, edges := 0, 0
	for _, s := range closed {
		if s.ok {
			okClosed++
			edges += s.edges
		}
	}
	m.set("closed_rps", "req/s", float64(okClosed)/closedDur.Seconds())
	m.set("ingest_eps", "edges/s", float64(edges)/closedDur.Seconds())
	if m.err != nil {
		return nil, nil, m.err
	}

	res := &result{Metrics: m.m, Attempted: len(open) + len(closed) + checks}
	for _, s := range append(open, closed...) {
		if !s.ok {
			res.Failed++
		}
	}
	res.Failed += c.wrong
	res.Correct = c.wrong == 0
	for _, pr := range c.problems {
		fmt.Fprintln(os.Stderr, "mintbench:", pr)
	}
	env := environment(sp, seed, workDir)
	env["open_loop"] = map[string]any{"seconds": openDur.Seconds(), "connections": conns,
		"server_cpu_cores": (cpu1 - cpu0) / openDur.Seconds(), "late_p90_ms": lateP90(open),
		"steal_share": ratio(steal1-steal0, total1-total0)}
	env["closed_loop"] = map[string]any{"clients": conns, "seconds": closedDur.Seconds()}
	env["setup_s"] = setups
	return res, env, nil
}

// latencies groups sample latencies in milliseconds by class.
func latencies(ss []sample) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range ss {
		out[s.class] = append(out[s.class], ms(s.latency()))
	}
	return out
}

// describe summarizes samples per class for the log: count and median
// latency.
func describe(ss []sample) string {
	var b strings.Builder
	byClass := latencies(ss)
	for _, c := range []string{"count", "batch", "enum", "ingest", "live"} {
		p90, _ := percentile(byClass[c], 0.9)
		var svc, late []float64
		for _, s := range ss {
			if s.class == c {
				svc = append(svc, ms(s.done.Sub(s.sent)))
				late = append(late, ms(s.late()))
			}
		}
		fmt.Fprintf(&b, "%s n=%d p50=%.1fms p90=%.1fms svc50=%.1f late50=%.1f; ", c, len(byClass[c]), median(byClass[c]), p90, median(svc), median(late))
	}
	fmt.Fprintf(&b, "late p90=%.1fms", lateP90(ss))
	return b.String()
}

func lateP90(ss []sample) float64 {
	var xs []float64
	for _, s := range ss {
		if !s.due.IsZero() {
			xs = append(xs, ms(s.late()))
		}
	}
	v, err := percentile(xs, 0.9)
	if err != nil {
		return 0
	}
	return v
}

// environment records what the numbers depend on besides the code.
func environment(sp *spec, seed int64, workDir string) map[string]any {
	limitsMS := map[string]float64{}
	for k, v := range limits {
		limitsMS[k] = ms(v)
	}
	return map[string]any{
		"workload":          sp.name,
		"seed":              seed,
		"commit":            commit(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"wal_fs":            fsType(workDir),
		"fsync_policy":      "always",
		"server_gogc":       serverGOGC,
		"mine_workers":      mineWorkers,
		"snapshot_every":    snapshotEvery,
		"scale":             scale,
		"live_window_edges": sp.window,
		"live_scale":        sp.liveScale,
		"rate_per_s":        sp.rate,
		"limits_ms":         limitsMS,
	}
}

// cpuSteal reads the machine's stolen and total CPU ticks from
// /proc/stat: time the hypervisor ran something else on our CPUs.
func cpuSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	abs, _ := filepath.Abs(dir)
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
