package main

// Binary-level replication gates: SIGKILL a replicated shard's primary
// mid-ingest under live coordinator traffic and verify the promoted
// standby serves bit-identical exact answers; SIGKILL a follower
// mid-catch-up and verify it resumes from its own WAL; fence a
// restarted deposed primary by epoch.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mint"
	"mint/internal/testutil"
)

func postPromote(t *testing.T, base string, force bool) (int, map[string]any) {
	t.Helper()
	url := base + "/v1/promote"
	if force {
		url += "?force=1"
	}
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST /v1/promote: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func replicationStatus(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/replication/status")
	if err != nil {
		t.Fatalf("GET /v1/replication/status: %v", err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplicaFailoverExact is the failover gate on real binaries: a
// coordinator fans out over a replicated shard (primary|standby) while
// a client streams edges into the primary. The primary is SIGKILLed
// mid-ingest, the standby is promoted, the client resumes its
// idempotent appends against the new primary — and the coordinator's
// /v1/count must come back bit-identical to the single-process oracle,
// NOT partial. An unreplicated shard killed the same way still degrades
// to loud-partial: replication is what buys exactness through death.
func TestReplicaFailoverExact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildMintd(t, dir)

	const delta = 500
	all := testutil.RandomGraph(rand.New(rand.NewSource(43)), 16, 1500, 8000).Edges
	const batchSize = 20
	var batches [][]mint.Edge
	for i := 0; i < len(all); i += batchSize {
		end := i + batchSize
		if end > len(all) {
			end = len(all)
		}
		batches = append(batches, all[i:end])
	}

	walA := filepath.Join(dir, "wal-a")
	walB := filepath.Join(dir, "wal-b")
	commonArgs := []string{"-listen", "127.0.0.1:0", "-workers", "1", "-scale", "0.01",
		"-ingest-sync", "always", "-ingest-snapshot-every", "-1"}
	primaryCmd, primaryURL := startMintd(t, bin, append([]string{"-ingest-dir", walA}, commonArgs...)...)
	waitReady(t, primaryURL)

	// Seed one batch before the standby starts so its first pull returns
	// immediately instead of long-polling an empty log.
	if ok, _ := postEdges(primaryURL, "kill", 1, batches[0]); !ok {
		t.Fatal("seed batch refused")
	}

	_, standbyURL := startMintd(t, bin,
		append([]string{"-ingest-dir", walB, "-follow", primaryURL}, commonArgs...)...)
	waitReady(t, standbyURL) // readiness implies fingerprint-verified catch-up

	// Coordinator over ONE replicated set: primary|standby.
	_, coord := startMintd(t, bin,
		"-listen", "127.0.0.1:0", "-coordinator",
		"-shards", primaryURL+"|"+standbyURL, "-shard-attempts", "2")
	waitReady(t, coord)

	countLive := func() (int, map[string]any) {
		body, _ := json.Marshal(map[string]any{
			"dataset": "live", "motif": "M1", "delta_seconds": delta, "timeout_ms": 30_000,
		})
		resp, err := http.Post(coord+"/v1/count", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("coordinator count: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	// Stream the rest while coordinator traffic runs over the cluster.
	var acked atomic.Int64
	acked.Store(1)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 1; i < len(batches); i++ {
			ok, _ := postEdges(primaryURL, "kill", uint64(i+1), batches[i])
			if !ok {
				return // the primary died under us — the point of the test
			}
			acked.Store(int64(i + 1))
		}
	}()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 50; i++ {
			countLive() // outcome irrelevant; the traffic is the test load
			time.Sleep(10 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if acked.Load() < 5 {
		t.Fatal("no batches acked before the kill window")
	}
	if err := primaryCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primaryCmd.Wait() //nolint:errcheck // reaping a SIGKILLed child
	<-writerDone
	<-readerDone
	t.Logf("SIGKILL primary after %d/%d acked batches", acked.Load(), len(batches))

	// Promote the standby. The primary is dead, so the standby cannot
	// re-verify catch-up — force accepts losing any unreplicated tail,
	// which the client's idempotent resume below re-sends anyway.
	code, out := postPromote(t, standbyURL, true)
	if code != http.StatusOK || out["status"] != "promoted" {
		t.Fatalf("promote: %d %v", code, out)
	}
	if st := replicationStatus(t, standbyURL); st["role"] != "primary" {
		t.Fatalf("post-promote status: %v", st)
	}

	// The client resumes against the new primary from batch 1: replicated
	// batches dedup against the shipped client ledger, lost ones land.
	for i := 0; i < len(batches); i++ {
		ok, _ := postEdges(standbyURL, "kill", uint64(i+1), batches[i])
		if !ok {
			t.Fatalf("resume append %d refused by promoted standby", i+1)
		}
	}
	info := datasetInfo(t, standbyURL, "live")
	if info.Edges != len(all) {
		t.Fatalf("promoted standby has %d edges, want %d", info.Edges, len(all))
	}

	// The gate: through the coordinator, the replicated shard's answer is
	// exact and bit-identical to the single-process oracle — not partial.
	g, err := mint.NewGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mint.MotifByName("M1", delta)
	if err != nil {
		t.Fatal(err)
	}
	oracle := mint.Count(g, m)
	status, cr := countLive()
	if status != http.StatusOK {
		t.Fatalf("post-failover count: status %d (%v)", status, cr)
	}
	if exact, _ := cr["exact"].(bool); !exact {
		t.Fatalf("post-failover count not exact: %v", cr)
	}
	if _, partial := cr["partial"]; partial {
		t.Fatalf("post-failover count marked partial: %v", cr)
	}
	if got := int64(cr["count"].(float64)); got != oracle {
		t.Fatalf("post-failover count %d, oracle %d", got, oracle)
	}

	// Contrast: an UNREPLICATED shard that dies stays loudly partial.
	// email-eu is served by every worker, so a two-shard coordinator
	// slices it; killing one shard must surface as partial, not silence.
	unrepCmd, unrepURL := startMintd(t, bin, "-listen", "127.0.0.1:0", "-workers", "1", "-scale", "0.01")
	waitReady(t, unrepURL)
	_, coord2 := startMintd(t, bin,
		"-listen", "127.0.0.1:0", "-coordinator",
		"-shards", standbyURL+","+unrepURL, "-shard-attempts", "1")
	waitReady(t, coord2)
	if err := unrepCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	unrepCmd.Wait() //nolint:errcheck
	body, _ := json.Marshal(map[string]any{"dataset": "email-eu", "motif": "M1", "timeout_ms": 30_000})
	resp, err := http.Post(coord2+"/v1/count", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pc map[string]any
	decErr := json.NewDecoder(resp.Body).Decode(&pc)
	resp.Body.Close()
	if decErr != nil {
		t.Fatal(decErr)
	}
	partial, ok := pc["partial"].(map[string]any)
	if resp.StatusCode != http.StatusOK || !ok {
		t.Fatalf("dead unreplicated shard: %d %v, want 200 with loud partial", resp.StatusCode, pc)
	}
	miss, _ := partial["missing_shards"].([]any)
	found := false
	for _, ms := range miss {
		if s, _ := ms.(string); strings.Contains(s, unrepURL) {
			found = true
		}
	}
	if !found {
		t.Fatalf("partial does not name the dead shard %s: %v", unrepURL, pc)
	}
}

// TestFollowerCrashSafety SIGKILLs a follower mid-catch-up: on restart
// it must resume from its OWN WAL (not refetch from scratch) and reach
// fingerprint-verified caught-up against the still-running primary.
func TestFollowerCrashSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildMintd(t, dir)

	all := testutil.RandomGraph(rand.New(rand.NewSource(47)), 16, 2000, 8000).Edges
	walP := filepath.Join(dir, "wal-p")
	walF := filepath.Join(dir, "wal-f")
	commonArgs := []string{"-listen", "127.0.0.1:0", "-workers", "1", "-scale", "0.01",
		"-ingest-sync", "always", "-ingest-snapshot-every", "-1"}
	_, primaryURL := startMintd(t, bin, append([]string{"-ingest-dir", walP}, commonArgs...)...)
	waitReady(t, primaryURL)
	// Many small batches: enough records that the follower's catch-up has
	// a real window to die in.
	const batchSize = 10
	for i := 0; i < len(all); i += batchSize {
		end := i + batchSize
		if end > len(all) {
			end = len(all)
		}
		if ok, _ := postEdges(primaryURL, "cs", uint64(i/batchSize+1), all[i:end]); !ok {
			t.Fatalf("primary refused batch %d", i/batchSize+1)
		}
	}

	followArgs := append([]string{"-ingest-dir", walF, "-follow", primaryURL}, commonArgs...)
	primarySeq := replicationStatus(t, primaryURL)["applied_seq"].(float64)
	fcmd, furl := startMintd(t, bin, followArgs...)
	// Kill without ceremony mid-catch-up: once the follower reports
	// syncing with some records applied but fewer than the primary's. No
	// waitReady: the point is to die before it is ready.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		st := replicationStatus(t, furl)
		if st["caught_up"] == true {
			t.Fatalf("follower caught up before it could be killed mid-catch-up: %v", st)
		}
		if seq, _ := st["applied_seq"].(float64); st["state"] == "syncing" && seq > 0 && seq < primarySeq {
			t.Logf("killing the follower at applied_seq %v of %v", seq, primarySeq)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reported a mid-catch-up position: %v", st)
		}
	}
	if err := fcmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	fcmd.Wait() //nolint:errcheck

	// Restart on the same WAL dir: replay what it had, resume pulling
	// from its own position, catch up, verify fingerprints.
	_, furl2 := startMintd(t, bin, followArgs...)
	waitReady(t, furl2)

	st := replicationStatus(t, furl2)
	if st["state"] != "caught_up" || st["caught_up"] != true {
		t.Fatalf("restarted follower status: %v", st)
	}
	pinfo := datasetInfo(t, primaryURL, "live")
	finfo := datasetInfo(t, furl2, "live")
	if pinfo.Fingerprint == "" || pinfo.Fingerprint != finfo.Fingerprint {
		t.Fatalf("fingerprints after crash-resume: primary %q follower %q", pinfo.Fingerprint, finfo.Fingerprint)
	}
	if finfo.Edges != len(all) {
		t.Fatalf("follower has %d edges, want %d", finfo.Edges, len(all))
	}
}

// TestDeposedPrimaryFenced restarts a primary whose standby was
// promoted in its absence: the first pull carrying the newer epoch must
// fence it — 409 to shipping, 503 to appends — so a split brain can
// never double-count.
func TestDeposedPrimaryFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds a binary and runs subprocesses")
	}
	dir := t.TempDir()
	bin := buildMintd(t, dir)

	walA := filepath.Join(dir, "wal-a")
	args := []string{"-listen", "127.0.0.1:0", "-workers", "1", "-scale", "0.01",
		"-ingest-dir", walA, "-ingest-sync", "always"}
	cmdA, urlA := startMintd(t, bin, args...)
	waitReady(t, urlA)
	if ok, _ := postEdges(urlA, "f", 1, []mint.Edge{{Src: 1, Dst: 2, Time: 10}}); !ok {
		t.Fatal("seed batch refused")
	}
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmdA.Wait() //nolint:errcheck

	// While A was dead, a standby somewhere was promoted to epoch 2.
	// A restarts none the wiser...
	_, urlA2 := startMintd(t, bin, args...)
	waitReady(t, urlA2)

	// ...until the first newer-epoch pull arrives (the promoted node's
	// replication traffic). That single request deposes A.
	pull, _ := json.Marshal(map[string]any{"dataset": "live", "from_seq": 2, "epoch": 2})
	resp, err := http.Post(urlA2+"/v1/replication/pull", "application/json", bytes.NewReader(pull))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("newer-epoch pull: %d, want 409", resp.StatusCode)
	}

	// Deposed: appends refuse with 503 (not a quiet ack into a log no
	// one will ever read) and shipping refuses with 409.
	body, _ := json.Marshal(map[string]any{
		"client_id": "f", "client_seq": 2,
		"edges": []map[string]int64{{"src": 3, "dst": 4, "time": 20}},
	})
	resp, err = http.Post(urlA2+"/v1/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deposed primary answered append with %d, want 503", resp.StatusCode)
	}
	pull, _ = json.Marshal(map[string]any{"dataset": "live", "from_seq": 1, "epoch": 1})
	resp, err = http.Post(urlA2+"/v1/replication/pull", "application/json", bytes.NewReader(pull))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed primary shipped records: %d, want 409", resp.StatusCode)
	}
	st := replicationStatus(t, urlA2)
	if st["state"] != "fenced" {
		t.Fatalf("deposed primary status: %v", st)
	}
}
