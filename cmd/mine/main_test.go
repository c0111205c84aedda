package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"mint/internal/checkpoint"
	"mint/internal/edgelog"
	"mint/internal/mackey"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

// buildMine compiles the mine binary into dir and returns its path.
func buildMine(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "mine")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var matchesRe = regexp.MustCompile(`(?m)^matches: (\d+) in `)
var resumedRe = regexp.MustCompile(`(?m)^supervisor: (\d+)/(\d+) chunks done \((\d+) resumed\)`)

// TestTraceFlag: -trace writes the run's request trace as Chrome
// trace_event JSON holding the engine's spans, for the chunk scheduler
// (mackey.worker) and the co-miner (comine.group) alike.
func TestTraceFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildMine(t, dir)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "mackey", "-motif", "M1"}, "mackey.worker"},
		{[]string{"-algo", "comine", "-motifs", "M1,M2"}, "comine.group"},
	} {
		path := filepath.Join(dir, tc.want+".json")
		args := append([]string{"-dataset", "em", "-scale", "0.002", "-workers", "2", "-trace", path}, tc.args...)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("mine %v: %v\n%s", args, err, out)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%v: trace is not Chrome trace JSON: %v", tc.args, err)
		}
		names := map[string]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" {
				names[ev.Name] = true
			}
		}
		for _, want := range []string{"mine", tc.want} {
			if !names[want] {
				t.Errorf("%v: trace has no %q span (have %v)", tc.args, want, names)
			}
		}
	}
}

// TestKillAndResume is the end-to-end crash-recovery check: a supervised
// mining run is SIGKILLed mid-flight (no cleanup, no graceful unwind —
// the same failure a power cut or OOM kill produces), then restarted
// with -resume against the surviving checkpoint. The resumed run must
// report the exact same count as an undisturbed run of the same
// workload, and must actually resume (skip completed chunks) rather than
// recompute from scratch.
//
// The first run is paced with a deterministic delay-fault plan (every
// chunk sleeps before mining), so "mid-flight" is reachable on any host
// speed without guessing at wall-clock timing.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildMine(t, dir)

	// Workload: big enough for ~78 chunks at -workers 1 (20000/256), so
	// the checkpoint has plenty of boundaries to cut at.
	g := testutil.RandomGraph(rand.New(rand.NewSource(5)), 48, 20_000, 4000)
	graphPath := filepath.Join(dir, "graph.txt")
	if err := temporal.SaveSNAPFile(graphPath, g); err != nil {
		t.Fatal(err)
	}
	m := temporal.M1(800)
	want := mackey.Mine(g, m, mackey.Options{}).Matches
	if want == 0 {
		t.Fatal("workload has no matches; the comparison would be vacuous")
	}

	ckpt := filepath.Join(dir, "run.ckpt")
	common := []string{
		"-graph", graphPath, "-motif", "M1", "-delta", "800",
		"-checkpoint", ckpt,
	}

	// Phase 1: single worker, every chunk delayed 20ms, killed once the
	// checkpoint holds some — but not all — completed chunks.
	phase1 := exec.Command(bin, append(append([]string{}, common...),
		"-workers", "1",
		"-chaos", "seed=1,delay=1.0,delaydur=20ms,sites=mackey.chunk")...)
	phase1.Stdout, phase1.Stderr = os.Stderr, os.Stderr
	if err := phase1.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- phase1.Wait() }()

	killed := false
	deadline := time.After(30 * time.Second)
poll:
	for {
		select {
		case err := <-exited:
			// Finished before we could kill it (very fast host): the resume
			// phase then just verifies a fully-complete checkpoint replays
			// to the same count.
			if err != nil {
				t.Fatalf("phase 1 exited with error before kill: %v", err)
			}
			break poll
		case <-deadline:
			phase1.Process.Kill()
			t.Fatal("phase 1 never produced a checkpoint with completed chunks")
		case <-time.After(25 * time.Millisecond):
			f, err := checkpoint.Load(ckpt)
			if err != nil || f == nil || len(f.Runs) == 0 || len(f.Runs[0].Chunks) < 8 {
				continue
			}
			if err := phase1.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatalf("kill: %v", err)
			}
			<-exited // reap; exit error expected after SIGKILL
			killed = true
			break poll
		}
	}

	f, err := checkpoint.Load(ckpt)
	if err != nil || f == nil || len(f.Runs) != 1 {
		t.Fatalf("no usable checkpoint after phase 1: %v", err)
	}
	t.Logf("phase 1: killed=%v, checkpoint has %d completed chunks", killed, len(f.Runs[0].Chunks))

	// Phase 2: resume at a different worker count, no chaos. Counts must
	// be bit-identical to the undisturbed run.
	phase2 := exec.Command(bin, append(append([]string{}, common...),
		"-workers", "4", "-resume")...)
	out, err := phase2.CombinedOutput()
	if err != nil {
		t.Fatalf("resume run failed: %v\n%s", err, out)
	}
	mm := matchesRe.FindSubmatch(out)
	if mm == nil {
		t.Fatalf("resume output has no matches line:\n%s", out)
	}
	got, err := strconv.ParseInt(string(mm[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed run counted %d, undisturbed run %d\n%s", got, want, out)
	}
	sm := resumedRe.FindSubmatch(out)
	if sm == nil {
		t.Fatalf("resume output has no supervisor line:\n%s", out)
	}
	resumed, _ := strconv.Atoi(string(sm[3]))
	if resumed == 0 {
		t.Errorf("resume recomputed everything (0 chunks resumed)\n%s", out)
	}
}

// TestWALVerify drives -wal-verify on a clean log, on damage in an
// earlier segment (corruption Open refuses: exit 1 with a PROBLEM line)
// and on damage in the final segment (the torn tail Open cuts: exit 0).
func TestWALVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildMine(t, dir)
	for _, tc := range []struct {
		name     string
		flip     func(segs []string) string // the segment to damage, "" for none
		wantExit int
		want     string
	}{
		{"clean", func([]string) string { return "" }, 0, "wal-verify: OK"},
		{"earlier", func(segs []string) string { return segs[0] }, 1, "PROBLEM:"},
		{"final", func(segs []string) string { return segs[len(segs)-1] }, 0, "torn-tail"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wal := filepath.Join(dir, tc.name)
			l, _, err := edgelog.Open(wal, edgelog.Options{SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				e := temporal.Edge{Src: temporal.NodeID(i), Dst: temporal.NodeID(i + 1), Time: temporal.Timestamp(i)}
				if _, _, err := l.Append("c", uint64(i+1), []temporal.Edge{e, e}); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()
			segs, _ := filepath.Glob(filepath.Join(wal, "wal-*.seg"))
			if len(segs) < 2 {
				t.Fatalf("want >=2 segments, got %d", len(segs))
			}
			if seg := tc.flip(segs); seg != "" {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				data[16+8+2] ^= 0xFF // inside the first record's payload
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			out, err := exec.Command(bin, "-wal-verify", "-wal", wal).CombinedOutput()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.wantExit || !strings.Contains(string(out), tc.want) {
				t.Fatalf("exit %d, want %d with %q in the output:\n%s", exit, tc.wantExit, tc.want, out)
			}
		})
	}
}
