package edgelog

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mint/internal/faultinject"
	"mint/internal/temporal"
)

func edgeBatch(base int, n int) []temporal.Edge {
	out := make([]temporal.Edge, n)
	for i := range out {
		out[i] = temporal.Edge{
			Src:  temporal.NodeID(base + i),
			Dst:  temporal.NodeID(base + i + 1),
			Time: temporal.Timestamp(base*10 + i),
		}
	}
	return out
}

func mustOpen(t *testing.T, dir string, opts Options) (*Log, ReplayResult) {
	t.Helper()
	l, res, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, res
}

func allEdges(snap *Snapshot, recs []Record) []temporal.Edge {
	var out []temporal.Edge
	if snap != nil {
		out = append(out, snap.Edges...)
	}
	for _, r := range recs {
		out = append(out, r.Edges...)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, res := mustOpen(t, dir, Options{})
	if res.Snapshot != nil || len(res.Records) != 0 {
		t.Fatalf("fresh log replayed state: %+v", res)
	}
	var want []temporal.Edge
	for i := 0; i < 20; i++ {
		batch := edgeBatch(i, 1+i%4)
		rec, dup, err := l.Append("cli", uint64(i+1), batch)
		if err != nil || dup {
			t.Fatalf("append %d: dup=%v err=%v", i, dup, err)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, rec.Seq)
		}
		want = append(want, batch...)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, res2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if res2.Truncated {
		t.Fatalf("clean log reported truncation: %s", res2.TruncateAt)
	}
	if got := allEdges(res2.Snapshot, res2.Records); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch: got %d edges want %d", len(got), len(want))
	}
	if l2.NextSeq() != 21 {
		t.Fatalf("NextSeq after replay = %d", l2.NextSeq())
	}
	if l2.ClientSeq("cli") != 20 {
		t.Fatalf("ClientSeq after replay = %d", l2.ClientSeq("cli"))
	}
}

func TestIdempotentClientRetry(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, dup, err := l.Append("a", 1, edgeBatch(0, 2)); err != nil || dup {
		t.Fatalf("first: dup=%v err=%v", dup, err)
	}
	// Retry of an acked batch: clean duplicate, nothing written.
	if _, dup, err := l.Append("a", 1, edgeBatch(0, 2)); err != nil || !dup {
		t.Fatalf("retry: dup=%v err=%v", dup, err)
	}
	// A different client with the same clientSeq is independent.
	if _, dup, err := l.Append("b", 1, edgeBatch(5, 1)); err != nil || dup {
		t.Fatalf("other client: dup=%v err=%v", dup, err)
	}
	// Empty client id opts out of dedup.
	if _, dup, err := l.Append("", 0, edgeBatch(9, 1)); err != nil || dup {
		t.Fatalf("anonymous: dup=%v err=%v", dup, err)
	}
	l.Close()
	// The ledger must survive replay: the same retry is still a dup.
	l2, _ := mustOpen(t, dir, Options{})
	defer l2.Close()
	if _, dup, err := l2.Append("a", 1, edgeBatch(0, 2)); err != nil || !dup {
		t.Fatalf("retry after reopen: dup=%v err=%v", dup, err)
	}
}

// TestAppendRejectsOversizeBatch pins the acked-means-durable contract
// against the decoder's record cap: a batch that would encode past
// maxRecordLen must be refused at Append time (the replay decoder
// rejects such payloads, so acking one would durably write a record
// that can never replay — silent loss on the next restart).
func TestAppendRejectsOversizeBatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()

	// Zero-valued edges pass endpoint validation; only the count is over.
	huge := make([]temporal.Edge, MaxBatchEdges+1)
	_, dup, err := l.Append("cli", 1, huge)
	if !errors.Is(err, ErrInvalidEdge) || dup {
		t.Fatalf("oversize append: dup=%v err=%v, want ErrInvalidEdge", dup, err)
	}
	if l.NextSeq() != 1 {
		t.Fatalf("oversize append advanced the log: next seq %d", l.NextSeq())
	}
	if l.ClientSeq("cli") != 0 {
		t.Fatalf("oversize append moved the client ledger: %d", l.ClientSeq("cli"))
	}

	// The exact cap is appendable and replays.
	full := make([]temporal.Edge, MaxBatchEdges)
	if _, dup, err := l.Append("", 0, full); err != nil || dup {
		t.Fatalf("cap-sized append: dup=%v err=%v", dup, err)
	}
	l.Close()
	l2, res := mustOpen(t, dir, Options{})
	defer l2.Close()
	if res.Truncated || len(res.Records) != 1 || len(res.Records[0].Edges) != MaxBatchEdges {
		t.Fatalf("cap-sized record did not replay cleanly: truncated=%v records=%d",
			res.Truncated, len(res.Records))
	}
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	name := l.active.name
	l.Close()

	// Chop bytes off the tail, simulating a crash mid-write: reopen must
	// recover exactly the whole records and report the repair.
	path := filepath.Join(dir, name)
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	l2, res := mustOpen(t, dir, Options{})
	if !res.Truncated {
		t.Fatalf("torn tail not reported")
	}
	if len(res.Records) != 4 {
		t.Fatalf("recovered %d records, want 4 (the 5th was torn)", len(res.Records))
	}
	// The log must accept appends at the recovered position.
	rec, _, err := l2.Append("c", 6, edgeBatch(9, 1))
	if err != nil || rec.Seq != 5 {
		t.Fatalf("append after repair: seq=%d err=%v", rec.Seq, err)
	}
	l2.Close()
	l3, res3 := mustOpen(t, dir, Options{})
	defer l3.Close()
	if res3.Truncated || len(res3.Records) != 5 {
		t.Fatalf("after repair+append: truncated=%v records=%d", res3.Truncated, len(res3.Records))
	}
}

func TestCorruptMiddleSegmentIsLoud(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		if _, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("want >=3 segments for the test, got %d", l.SegmentCount())
	}
	first := l.segments[0].name
	l.Close()

	// Flip one payload byte in the FIRST segment: replay must refuse with
	// a positioned CorruptError, never silently truncate the middle of
	// the history.
	path := filepath.Join(dir, first)
	data, _ := os.ReadFile(path)
	data[headerLen+frameLen+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{SegmentBytes: 256})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt middle segment: got %v, want *CorruptError", err)
	}
	if ce.Segment != first {
		t.Fatalf("error blames %q, want %q", ce.Segment, first)
	}
}

func TestMissingMiddleSegmentIsLoud(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		if _, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("want >=3 segments, got %d", l.SegmentCount())
	}
	victim := l.segments[1].name
	l.Close()
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{SegmentBytes: 256})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("missing middle segment: got %v, want *CorruptError (sequence gap)", err)
	}
}

// TestCorruptLogNeverWrongGraph is the byte-flip property test the issue
// demands: flip one random byte anywhere in the log; reopening must
// either fail loudly or recover a clean prefix of the original appends —
// never a graph with different edge content.
func TestCorruptLogNeverWrongGraph(t *testing.T) {
	baseDir := t.TempDir()
	build := func(dir string) []Record {
		l, _ := mustOpen(t, dir, Options{SegmentBytes: 512})
		var recs []Record
		for i := 0; i < 40; i++ {
			rec, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 1+i%3))
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		l.Close()
		return recs
	}
	orig := build(filepath.Join(baseDir, "orig"))

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		dir := filepath.Join(baseDir, "t", string(rune('a'+trial%26))+string(rune('a'+trial/26)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		build(dir)
		// Pick a random segment file and flip one random byte (or chop a
		// random tail length on some trials).
		entries, _ := os.ReadDir(dir)
		var segs []string
		for _, e := range entries {
			if _, ok := parseSegName(e.Name()); ok {
				segs = append(segs, e.Name())
			}
		}
		path := filepath.Join(dir, segs[rng.Intn(len(segs))])
		data, _ := os.ReadFile(path)
		if trial%3 == 0 && len(data) > 1 {
			data = data[:1+rng.Intn(len(data)-1)] // torn tail
		} else {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255)) // bit rot
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		l, res, err := verifyThenOpen(t, dir, Options{SegmentBytes: 512})
		if err != nil {
			continue // loud refusal is always acceptable
		}
		l.Close()
		// Accepted: the replayed records must be an exact prefix of the
		// original append sequence.
		if len(res.Records) > len(orig) {
			t.Fatalf("trial %d: recovered MORE records (%d) than written (%d)", trial, len(res.Records), len(orig))
		}
		for i, r := range res.Records {
			if !reflect.DeepEqual(r.Edges, orig[i].Edges) || r.Seq != orig[i].Seq {
				t.Fatalf("trial %d: record %d differs after corruption: got %+v want %+v",
					trial, i, r, orig[i])
			}
		}
	}
}

// verifyThenOpen runs Verify and then Open on dir and requires the two
// to agree: Verify is OK exactly when Open succeeds, reports a torn tail
// exactly when Open cuts one, and predicts the recovered position.
func verifyThenOpen(t *testing.T, dir string, opts Options) (*Log, ReplayResult, error) {
	t.Helper()
	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify(%s): %v", dir, err)
	}
	l, res, err := Open(dir, opts)
	if rep.OK != (err == nil) {
		t.Fatalf("Verify OK=%v (problems %q) but Open err=%v", rep.OK, rep.Problems, err)
	}
	if err != nil {
		return nil, res, err
	}
	if rep.TornTail != res.Truncated || rep.TornAt != res.TruncateAt {
		t.Fatalf("Verify TornTail=%v (%s) but Open Truncated=%v (%s)", rep.TornTail, rep.TornAt, res.Truncated, res.TruncateAt)
	}
	if rep.NextSeq != l.NextSeq() || rep.Epoch != l.Epoch() {
		t.Fatalf("Verify predicts next seq %d epoch %d, Open recovered %d, %d", rep.NextSeq, rep.Epoch, l.NextSeq(), l.Epoch())
	}
	return l, res, nil
}

// TestZeroFilledTailIsCut: a crash that extended the file before its
// data reached the disk leaves a zero-filled tail. Verify and Open must
// both treat it as the torn tail of the final segment and keep every
// whole record before it.
func TestZeroFilledTailIsCut(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	name := l.active.name
	l.Close()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, res, err := verifyThenOpen(t, dir, Options{})
	if err != nil {
		t.Fatalf("zero-filled tail refused: %v", err)
	}
	defer l2.Close()
	if !res.Truncated || len(res.Records) != 5 {
		t.Fatalf("zero-filled tail: truncated=%v records=%d, want the cut reported and all 5 records", res.Truncated, len(res.Records))
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	var all []temporal.Edge
	for i := 0; i < 20; i++ {
		b := edgeBatch(i, 2)
		if _, _, err := l.Append("c", uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	before := l.SegmentCount()
	if before < 3 {
		t.Fatalf("want >=3 segments before compaction, got %d", before)
	}
	snap := &Snapshot{
		Seq:     20,
		Cutoff:  0,
		Edges:   append([]temporal.Edge(nil), all...),
		Clients: map[string]uint64{"c": 20},
	}
	if err := l.WriteSnapshot(snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := l.SegmentCount(); got != 1 {
		t.Fatalf("after compaction: %d segments, want 1 (fresh active)", got)
	}
	// Append after compaction, then reopen: snapshot + tail must rebuild
	// the full edge sequence.
	tail := edgeBatch(99, 2)
	if _, _, err := l.Append("c", 21, tail); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, res := mustOpen(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if res.Snapshot == nil || res.Snapshot.Seq != 20 {
		t.Fatalf("replay snapshot: %+v", res.Snapshot)
	}
	want := append(append([]temporal.Edge(nil), all...), tail...)
	if got := allEdges(res.Snapshot, res.Records); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot+tail replay mismatch: %d edges vs %d", len(got), len(want))
	}
	if l2.ClientSeq("c") != 21 {
		t.Fatalf("client ledger after snapshot replay: %d", l2.ClientSeq("c"))
	}
}

func TestCorruptSnapshotIsLoud(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(&Snapshot{Seq: 3, Edges: edgeBatch(0, 3)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, snapshotName)
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatalf("corrupt snapshot accepted")
	}
}

func TestChaosAppendRetryRerolls(t *testing.T) {
	// A scheduled Error on (edgelog.append, seq 2, attempt 0) must fail
	// that append cleanly; the retry is attempt 1 and succeeds. The
	// failed attempt must leave no bytes behind.
	plan := (&faultinject.Plan{}).Schedule("edgelog.append", 2, 0, faultinject.Error)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Chaos: plan})
	if _, _, err := l.Append("c", 1, edgeBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append("c", 2, edgeBatch(1, 1)); err == nil {
		t.Fatalf("scheduled fault did not fire")
	}
	if _, dup, err := l.Append("c", 2, edgeBatch(1, 1)); err != nil || dup {
		t.Fatalf("retry after injected fault: dup=%v err=%v", dup, err)
	}
	l.Close()
	_, res := mustOpen(t, dir, Options{})
	if res.Truncated || len(res.Records) != 2 {
		t.Fatalf("after chaos append: truncated=%v records=%d", res.Truncated, len(res.Records))
	}
}

func TestChaosFsyncRollsBack(t *testing.T) {
	plan := (&faultinject.Plan{}).Schedule("edgelog.fsync", 1, 0, faultinject.Error)
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Chaos: plan})
	if _, _, err := l.Append("c", 1, edgeBatch(0, 2)); err == nil {
		t.Fatalf("fsync fault did not surface")
	}
	// The un-synced frame was rolled back: the retry gets the SAME seq
	// and the log replays exactly one record.
	rec, _, err := l.Append("c", 1, edgeBatch(0, 2))
	if err != nil || rec.Seq != 1 {
		t.Fatalf("retry: seq=%d err=%v", rec.Seq, err)
	}
	l.Close()
	_, res := mustOpen(t, dir, Options{})
	if len(res.Records) != 1 || res.Truncated {
		t.Fatalf("after fsync chaos: records=%d truncated=%v", len(res.Records), res.Truncated)
	}
}

func TestChaosReplaySite(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if _, _, err := l.Append("c", 1, edgeBatch(0, 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	plan := (&faultinject.Plan{}).Schedule("edgelog.replay", 0, 0, faultinject.Error)
	if _, _, err := Open(dir, Options{Chaos: plan}); err == nil {
		t.Fatalf("replay fault did not surface")
	}
	// Without the plan the same directory opens fine.
	l2, _ := mustOpen(t, dir, Options{})
	l2.Close()
}

func TestSyncPolicyParse(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"always", 1, true}, {"", 1, true}, {"none", SyncNever, true},
		{"8", 8, true}, {"0", 0, false}, {"-3", 0, false}, {"banana", 0, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseSyncPolicy(%q) = %d, %v; want %d ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestSyncEveryNSurvivesCleanClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SyncEvery: 100})
	for i := 0; i < 7; i++ {
		if _, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close() // Close syncs pending appends
	_, res := mustOpen(t, dir, Options{})
	if len(res.Records) != 7 {
		t.Fatalf("records after close: %d", len(res.Records))
	}
}

func TestValidateEdgesRejectsNegativeEndpoints(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	_, _, err := l.Append("c", 1, []temporal.Edge{{Src: -1, Dst: 2, Time: 3}})
	if err == nil {
		t.Fatalf("negative endpoint accepted")
	}
	if l.NextSeq() != 1 {
		t.Fatalf("rejected append consumed a seq")
	}
}
