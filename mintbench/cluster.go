package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running mintd.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	mu   sync.Mutex
	log  bytes.Buffer
}

// startMintd launches mintd on a free loopback port and returns once it
// reports its address.
func startMintd(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOGC=%d", serverGOGC))
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	cmd.Stderr = &lockedWriter{p}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			p.write(line + "\n")
			if i := strings.Index(line, "serving on http://"); i >= 0 {
				a := strings.Fields(line[i+len("serving on http://"):])[0]
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // draining a dead pipe
		cmd.Wait()               //nolint:errcheck // the exit status is in the log
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = a
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("mintd %v exited before serving: %s", args, p.logText())
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("mintd %v did not report an address", args)
	}
}

type lockedWriter struct{ p *proc }

func (w *lockedWriter) Write(b []byte) (int, error) { w.p.write(string(b)); return len(b), nil }

func (p *proc) write(s string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log.Len() < 1<<16 {
		p.log.WriteString(s)
	}
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.String()
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than ten seconds.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-p.done
	}
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status.
func (p *proc) procStatusKB(key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line[len(key)+1:])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, p.cmd.Process.Pid)
}

// cpuSeconds is the process's user plus system time so far.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", p.cmd.Process.Pid)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// cluster is one workload's set of mintd processes.
type cluster struct {
	procs []*proc
	front string // where static queries go
	live  string // the worker holding the live stream
	dir   string
}

func (c *cluster) stop() {
	var wg sync.WaitGroup
	for _, p := range c.procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
	os.RemoveAll(c.dir) //nolint:errcheck // scratch space under the work dir
}

// peakRSSMiB sums the processes' high-water resident sets.
func (c *cluster) peakRSSMiB() (float64, error) {
	var sum float64
	for _, p := range c.procs {
		kb, err := p.procStatusKB("VmHWM")
		if err != nil {
			return 0, err
		}
		sum += kb / 1024
	}
	return sum, nil
}

func (c *cluster) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range c.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// serverGOGC is the servers' garbage-collection target. At the default
// (100), a 200k-edge live window collects about once every eight
// appends, so ingest p90 sat on the boundary between appends that met a
// collection and appends that did not, and moved by half between runs.
// At 200 a collection meets about one append in sixteen.
const serverGOGC = 200

// mineWorkers is each request's mining parallelism. One worker per
// request lets the two connections' requests run side by side on the
// two cores; with one worker per core per request, a cheap request
// queued beside a heavy one waits for the Go scheduler's 10 ms time
// slice and cheap-request percentiles swing by tens of percent between
// seeds.
const mineWorkers = 1

// snapshotEvery is the WAL snapshot cadence: low enough that every run
// crosses several snapshot and compaction cycles.
const snapshotEvery = 64

// workerArgs are the flags of the worker that holds the live stream.
func workerArgs(p *plan, walDir string) []string {
	return []string{
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-workers", strconv.Itoa(mineWorkers),
		"-ingest-dir", walDir,
		"-ingest-window", strconv.FormatInt(p.window, 10),
		"-ingest-snapshot-every", strconv.Itoa(snapshotEvery),
	}
}

// startCluster starts the workload's processes and brings them to
// ready: registries warm, the live window prefilled, the standing
// queries registered.
func startCluster(bin string, p *plan, workDir string) (*cluster, error) {
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	fail := func(err error) (*cluster, error) {
		c.stop()
		return nil, err
	}
	nworkers := 1
	if p.spec.coord {
		nworkers = 3
	}
	type started struct {
		p   *proc
		err error
	}
	res := make([]started, nworkers)
	var wg sync.WaitGroup
	for i := 0; i < nworkers; i++ {
		args := []string{"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-workers", strconv.Itoa(mineWorkers)}
		if i == 0 {
			args = workerArgs(p, filepath.Join(dir, "wal"))
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			res[i].p, res[i].err = startMintd(bin, args...)
		}(i, args)
	}
	wg.Wait()
	var urls []string
	for _, r := range res {
		if r.p != nil {
			c.procs = append(c.procs, r.p)
			urls = append(urls, "http://"+r.p.url)
		}
	}
	for _, r := range res {
		if r.err != nil {
			return fail(r.err)
		}
	}
	c.front, c.live = urls[0], urls[0]
	if p.spec.coord {
		cp, err := startMintd(bin, "-coordinator", "-shards", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		c.procs = append(c.procs, cp)
		c.front = "http://" + cp.url
		urls = append(urls, c.front)
	}
	if err := ready(urls, p); err != nil {
		return fail(err)
	}
	cl := newClient(p, c.front, c.live)
	if err := cl.prefill(); err != nil {
		return fail(err)
	}
	return c, nil
}

// ready waits for every process's /readyz and loads every static
// dataset on every worker (and through the coordinator, which caches
// the shards' dataset identities).
func ready(urls []string, p *plan) error {
	hc := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for _, u := range urls {
		for {
			resp, err := hc.Get(u + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 60s", u)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, u := range urls {
		for _, d := range staticDatasets {
			body := fmt.Sprintf(`{"dataset":%q}`, d)
			resp, err := hc.Post(u+"/v1/datasetinfo", "application/json", strings.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("%s: loading %s: status %d", u, d, resp.StatusCode)
			}
		}
	}
	return nil
}
