package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"mint"
	"mint/internal/checkpoint"
	"mint/internal/datasets"
	"mint/internal/obs"
)

// buildMintd compiles the mintd binary into dir and returns its path.
func buildMintd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "mintd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var servingRe = regexp.MustCompile(`serving on http://(\S+)`)

// TestSIGTERMDrain is the end-to-end drain check on the real binary: a
// supervised request is mid-flight when the process takes SIGTERM. The
// server must exit 0 within the drain deadline, flush its RunReport,
// and leave the client with either a complete exact answer or a loudly
// truncated one whose checkpoint replays to the oracle count.
func TestSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs a subprocess")
	}
	dir := t.TempDir()
	bin := buildMintd(t, dir)
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	reportPath := filepath.Join(dir, "report.json")

	// Every chunk sleeps 100ms, so the synthetic email-eu workload
	// (~13 chunks at -workers 1) outlives the 1s drain grace by design.
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-workers", "1",
		"-scale", "0.01",
		"-checkpoint-dir", ckptDir,
		"-report", reportPath,
		"-chaos", "seed=1,delay=1.0,delaydur=100ms,sites=mackey.chunk",
		"-drain-timeout", "1s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // backstop; normal path reaps via Wait

	// The binary prints its bound address once the listener is up.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("mintd never reported its listen address: %v", sc.Err())
	}
	go func() { // keep draining stdout so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	base := "http://" + addr

	waitReady(t, base)

	// Fire the slow supervised request and leave it in flight.
	type result struct {
		status int
		resp   map[string]any
		err    error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		body, _ := json.Marshal(map[string]any{
			"dataset": "email-eu", "motif": "M1", "supervised": true,
			"timeout_ms": 60_000,
		})
		resp, err := http.Post(base+"/v1/count", "application/json", bytes.NewReader(body))
		if err != nil {
			r.err = err
		} else {
			r.status = resp.StatusCode
			r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
			resp.Body.Close()
		}
		done <- r
	}()

	// SIGTERM only after the checkpoint holds completed chunks, so the
	// drain provably interrupts real work.
	var ckptPath string
	deadline := time.Now().Add(30 * time.Second)
	for ckptPath == "" {
		if time.Now().After(deadline) {
			t.Fatal("supervised request never produced a checkpoint with completed chunks")
		}
		time.Sleep(20 * time.Millisecond)
		paths, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
		for _, p := range paths {
			if f, err := checkpoint.Load(p); err == nil && f != nil && len(f.Runs) > 0 && len(f.Runs[0].Chunks) >= 2 {
				ckptPath = p
			}
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The process must exit cleanly within the drain deadline (1s grace
	// + HTTP shutdown + report flush; 15s is a generous ceiling).
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("mintd exited with error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("mintd did not exit within 15s of SIGTERM")
	}

	// The report must have been flushed with the drain recorded.
	rep, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("no report flushed on drain: %v", err)
	}
	if !bytes.Contains(rep, []byte("server.drain_done")) {
		t.Errorf("report does not record the drain:\n%s", rep)
	}

	// The in-flight client must have gotten an honest answer.
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed outright: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200 (body %v)", r.status, r.resp)
	}

	// Oracle: the same synthetic dataset the server loaded.
	spec, err := datasets.ByName("email-eu")
	if err != nil {
		t.Fatal(err)
	}
	g, err := datasets.Load(spec, "", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m := mint.M1(mint.DeltaHour)
	want := mint.Count(g, m)

	if exact, _ := r.resp["exact"].(bool); exact {
		if got := int64(r.resp["count"].(float64)); got != want {
			t.Fatalf("exact response count %d, oracle %d", got, want)
		}
		return
	}
	if truncated, _ := r.resp["truncated"].(bool); !truncated {
		t.Fatalf("interrupted response neither exact nor truncated: %v", r.resp)
	}
	ckpt, _ := r.resp["checkpoint"].(string)
	if ckpt == "" {
		t.Fatalf("truncated supervised response has no checkpoint: %v", r.resp)
	}
	res, err := mint.Run(context.Background(), g, mint.Query{Motif: m, Workers: 4,
		Supervisor: &mint.SupervisorConfig{CheckpointPath: ckpt, Resume: true}})
	if err != nil {
		t.Fatalf("resume from %s: %v", ckpt, err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("resumed run: matches=%d truncated=%v, oracle %d", res.Matches, res.Truncated, want)
	}
	t.Logf("drain interrupted the request; checkpoint %s resumed to %d (oracle %d)", filepath.Base(ckpt), res.Matches, want)
}

// startMintd launches one mintd process and scans its stdout for the
// bound address. The returned cleanup kills the process (backstop; the
// test may have terminated it already).
func startMintd(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() }) //nolint:errcheck // backstop
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("mintd %v never reported its listen address: %v", args, sc.Err())
	}
	go func() { // keep draining stdout so the child never blocks
		for sc.Scan() {
		}
	}()
	return cmd, "http://" + addr
}

// TestCoordinatorEndToEnd runs the README topology on real binaries:
// three worker processes and a -coordinator front. The healthy cluster
// must merge bit-identical to the single-process oracle; after one
// worker is SIGKILLed the merged answer must be loudly partial, naming
// the dead shard — never silently short.
func TestCoordinatorEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs four subprocesses")
	}
	dir := t.TempDir()
	bin := buildMintd(t, dir)

	var urls []string
	var workers []*exec.Cmd
	for i := 0; i < 3; i++ {
		cmd, base := startMintd(t, bin, "-listen", "127.0.0.1:0", "-workers", "1", "-scale", "0.01")
		workers = append(workers, cmd)
		urls = append(urls, base)
		waitReady(t, base)
	}
	_, coord := startMintd(t, bin,
		"-listen", "127.0.0.1:0",
		"-coordinator", "-shards", strings.Join(urls, ","),
		"-shard-attempts", "2",
	)
	waitReady(t, coord)

	postCount := func() (int, map[string]any, http.Header) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{
			"dataset": "email-eu", "motif": "M1", "timeout_ms": 30_000,
		})
		resp, err := http.Post(coord+"/v1/count", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp.StatusCode, out, resp.Header
	}

	spec, err := datasets.ByName("email-eu")
	if err != nil {
		t.Fatal(err)
	}
	g, err := datasets.Load(spec, "", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	oracle := mint.Count(g, mint.M1(mint.DeltaHour))

	status, out, hdr := postCount()
	if status != http.StatusOK {
		t.Fatalf("healthy count: status %d (%v)", status, out)
	}
	if exact, _ := out["exact"].(bool); !exact {
		t.Fatalf("healthy 3-shard count not exact: %v", out)
	}
	if got := int64(out["count"].(float64)); got != oracle {
		t.Fatalf("healthy merge count %d, single-process oracle %d", got, oracle)
	}

	// Observability on the live topology: the coordinator must serve the
	// merged distributed trace for the request it just answered, and its
	// /metrics exposition must lint clean.
	traceID := hdr.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("coordinator response carries no X-Trace-Id")
	}
	resp, err := http.Get(coord + "/debug/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&trace)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace dump status %d", resp.StatusCode)
	}
	if decErr != nil {
		t.Fatalf("trace dump is not Chrome trace JSON: %v", decErr)
	}
	pids := map[int]bool{}
	sawShardSpan := false
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if ev.Name == "http.count" {
			sawShardSpan = true
		}
	}
	if len(pids) != 4 || !sawShardSpan {
		t.Fatalf("merged trace should cover coordinator + 3 shard processes with shard-side spans, got %d pids (shard span %v)", len(pids), sawShardSpan)
	}

	resp, err = http.Get(coord + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || readErr != nil {
		t.Fatalf("/metrics status %d err %v", resp.StatusCode, readErr)
	}
	if _, err := obs.LintPrometheus(string(metricsText)); err != nil {
		t.Fatalf("coordinator /metrics fails exposition lint: %v", err)
	}
	if !bytes.Contains(metricsText, []byte("mintd_gather_count_requests")) {
		t.Fatalf("coordinator /metrics missing fan-out counters:\n%s", metricsText)
	}

	// Kill a worker outright; the merged answer must name it missing.
	dead := urls[1]
	if err := workers[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	workers[1].Wait() //nolint:errcheck // reaping a SIGKILLed child
	status, out, _ = postCount()
	if status != http.StatusOK {
		t.Fatalf("post-kill count: status %d (%v)", status, out)
	}
	if exact, _ := out["exact"].(bool); exact {
		t.Fatalf("post-kill count claims exact — silently wrong: %v", out)
	}
	if truncated, _ := out["truncated"].(bool); !truncated {
		t.Fatalf("post-kill count not marked truncated: %v", out)
	}
	partial, _ := out["partial"].(map[string]any)
	if partial == nil {
		t.Fatalf("post-kill count has no partial marker: %v", out)
	}
	missing, _ := partial["missing_shards"].([]any)
	found := false
	for _, m := range missing {
		if m == dead {
			found = true
		}
	}
	if !found {
		t.Fatalf("partial marker does not name the killed shard %s: %v", dead, out)
	}
	if got := int64(out["count"].(float64)); got > oracle {
		t.Fatalf("partial count %d exceeds oracle %d — not a lower bound", got, oracle)
	}
}

// waitReady polls /readyz until the server answers 200.
func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestReadyzFlipsBeforeExit double-checks the drain ordering from the
// outside: after SIGTERM the readiness probe must refuse before the
// listener dies, so load balancers stop routing to a draining replica.
// waitMetric polls /metrics until it exposes the sample line want.
func waitMetric(t *testing.T, base, want string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if resp, err := http.Get(base + "/metrics"); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if bytes.Contains(body, []byte("\n"+want+"\n")) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed %q", want)
		}
	}
}

func TestReadyzFlipsBeforeExit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs a subprocess")
	}
	dir := t.TempDir()
	bin := buildMintd(t, dir)
	// The chunk delay keeps the held request alive through the drain
	// window so the listener survives long enough to observe readiness.
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-drain-timeout", "5s",
		"-workers", "1", "-scale", "0.01",
		"-chaos", "seed=1,delay=1.0,delaydur=50ms,sites=mackey.chunk")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // backstop

	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := servingRe.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatal("mintd never reported its listen address")
	}
	go func() {
		for sc.Scan() {
		}
	}()
	base := "http://" + addr
	waitReady(t, base)

	// Hold one slow-ish request so the listener survives the drain long
	// enough to observe the flipped readiness.
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		body, _ := json.Marshal(map[string]any{
			"dataset": "email-eu", "motif": "M1", "timeout_ms": 3000,
		})
		resp, err := http.Post(base+"/v1/count", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Signal only once the request is inside the server: its route
	// counter has ticked.
	waitMetric(t, base, "mintd_http_count_requests 1")
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	flipped := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener gone: drain finished
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	<-hold
	if !flipped {
		t.Error("readiness never flipped to 503 during drain")
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("mintd exited with error after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("mintd did not exit within 15s of SIGTERM")
	}
}
