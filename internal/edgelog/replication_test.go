package edgelog

// Tests for the replication-facing log surface: epoch records, the
// shipping cursor (ReadRecords), verbatim application (AppendRecord),
// the read-only fsck (Verify), and the compaction crash window between
// snapshot write and covered-segment removal.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mint/internal/faultinject"
	"mint/internal/temporal"
)

func TestEpochBumpDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if l.Epoch() != 1 {
		t.Fatalf("fresh log epoch = %d, want 1", l.Epoch())
	}
	if _, err := l.BumpEpoch(1); err == nil {
		t.Fatal("BumpEpoch to current epoch must refuse")
	}
	rec, err := l.BumpEpoch(2)
	if err != nil {
		t.Fatalf("BumpEpoch(2): %v", err)
	}
	if rec.Kind != KindEpoch || rec.Epoch != 2 {
		t.Fatalf("epoch record: %+v", rec)
	}
	if _, _, err := l.Append("c", 1, edgeBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, res := mustOpen(t, dir, Options{})
	if l2.Epoch() != 2 {
		t.Fatalf("epoch after reopen = %d, want 2", l2.Epoch())
	}
	// Snapshot everything, compacting the epoch record away; the epoch
	// must survive through the snapshot.
	snap := &Snapshot{Seq: l2.NextSeq() - 1, Edges: allEdges(res.Snapshot, res.Records)}
	if err := l2.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("snapshot epoch defaulted to %d, want 2", snap.Epoch)
	}
	l2.Close()
	l3, _ := mustOpen(t, dir, Options{})
	defer l3.Close()
	if l3.Epoch() != 2 {
		t.Fatalf("epoch after snapshot-only reopen = %d, want 2", l3.Epoch())
	}
}

func TestReadRecordsShipsDurablePrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	defer l.Close()
	var want []Record
	for i := 0; i < 5; i++ {
		rec, _, err := l.Append("c", uint64(i+1), edgeBatch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	recs, tail, err := l.ReadRecords(1, 0)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if tail != 0 {
		t.Fatalf("tailBytes = %d, want 0", tail)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != want[i].Seq || !reflect.DeepEqual(r.Edges, want[i].Edges) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, r, want[i])
		}
	}
	// Bounded batch: max=2 ships the first two and reports tail bytes.
	recs, tail, err = l.ReadRecords(1, 2)
	if err != nil || len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("bounded read: %d recs tail=%d err=%v", len(recs), tail, err)
	}
	if tail <= 0 {
		t.Fatalf("bounded read must report remaining tail bytes, got %d", tail)
	}
	// From the end: empty, no error.
	recs, _, err = l.ReadRecords(6, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("read past end: %d recs err=%v", len(recs), err)
	}
}

func TestReadRecordsCompacted(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	defer l.Close()
	var all []temporal.Edge
	for i := 0; i < 10; i++ {
		b := edgeBatch(i, 2)
		if _, _, err := l.Append("c", uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if err := l.WriteSnapshot(&Snapshot{Seq: 10, Edges: all}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append("c", 11, edgeBatch(99, 1)); err != nil {
		t.Fatal(err)
	}
	// Records 1..10 were compacted into the snapshot: a follower asking
	// for them must get ErrCompacted (→ snapshot bootstrap), not silence.
	if _, _, err := l.ReadRecords(1, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadRecords(1) after compaction: %v, want ErrCompacted", err)
	}
	recs, _, err := l.ReadRecords(11, 0)
	if err != nil || len(recs) != 1 || recs[0].Seq != 11 {
		t.Fatalf("post-snapshot tail: %d recs err=%v", len(recs), err)
	}
}

func TestAppendRecordDivergenceGuard(t *testing.T) {
	src := t.TempDir()
	dst := t.TempDir()
	p, _ := mustOpen(t, src, Options{})
	defer p.Close()
	f, _ := mustOpen(t, dst, Options{})
	defer f.Close()

	if _, _, err := p.Append("c", 1, edgeBatch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BumpEpoch(3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AppendStanding(StandingOp{Op: StandingRegister, Name: "q", Spec: "q|0->1", Delta: 60}); err != nil {
		t.Fatal(err)
	}
	recs, _, err := p.ReadRecords(1, 0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("source read: %d recs err=%v", len(recs), err)
	}

	// A gap (seq 2 before seq 1) is divergence, loudly refused.
	if err := f.AppendRecord(recs[1]); err == nil {
		t.Fatal("AppendRecord with a seq gap must refuse")
	}
	for _, r := range recs {
		if err := f.AppendRecord(r); err != nil {
			t.Fatalf("apply seq %d: %v", r.Seq, err)
		}
	}
	if f.NextSeq() != p.NextSeq() {
		t.Fatalf("follower nextSeq %d != source %d", f.NextSeq(), p.NextSeq())
	}
	if f.Epoch() != 3 {
		t.Fatalf("follower epoch = %d, want 3 (from replicated epoch record)", f.Epoch())
	}
	if f.ClientSeq("c") != 1 {
		t.Fatalf("follower client ledger = %d, want 1", f.ClientSeq("c"))
	}
	// Replaying the same record again is divergence too (history can
	// only be appended once).
	if err := f.AppendRecord(recs[0]); err == nil {
		t.Fatal("re-applying an old record must refuse")
	}
}

func TestVerifyReportsCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128})
	var all []temporal.Edge
	for i := 0; i < 8; i++ {
		b := edgeBatch(i, 2)
		if _, _, err := l.Append("c", uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	if err := l.WriteSnapshot(&Snapshot{Seq: 4, Edges: all[:8]}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.BumpEpoch(2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	rep, err := Verify(dir)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.OK || len(rep.Problems) != 0 {
		t.Fatalf("clean log not OK: %+v", rep.Problems)
	}
	if !rep.HasSnapshot || rep.SnapshotSeq != 4 {
		t.Fatalf("snapshot report: has=%v seq=%d", rep.HasSnapshot, rep.SnapshotSeq)
	}
	if rep.Epoch != 2 {
		t.Fatalf("verify epoch = %d, want 2", rep.Epoch)
	}
	if len(rep.Segments) == 0 {
		t.Fatal("no segments reported")
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("want >=2 segments, got %d", len(segs))
	}
	// flip flips one byte of a record in seg, runs Verify, checks that
	// Verify wrote nothing, and restores the segment.
	flip := func(seg string) *VerifyReport {
		t.Helper()
		orig, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), orig...)
		data[headerLen+10] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if after, _ := os.ReadFile(seg); !reflect.DeepEqual(after, data) {
			t.Fatal("Verify modified the log")
		}
		if err := os.WriteFile(seg, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// A flipped byte in the final segment is the torn tail Open cuts:
	// salvageable, reported with its offset.
	last := filepath.Base(segs[len(segs)-1])
	rep2 := flip(segs[len(segs)-1])
	if !rep2.OK || !rep2.TornTail || len(rep2.Problems) != 0 {
		t.Fatalf("final-segment damage: OK=%v TornTail=%v problems=%q, want a repairable torn tail", rep2.OK, rep2.TornTail, rep2.Problems)
	}
	if want := last + "@" + strconv.Itoa(headerLen) + ":"; !strings.HasPrefix(rep2.TornAt, want) {
		t.Fatalf("TornAt = %q, want it to start %q", rep2.TornAt, want)
	}
	if st := rep2.Segments[len(rep2.Segments)-1].Status; st != "torn-tail" {
		t.Fatalf("final segment status %q, want torn-tail", st)
	}

	// The same flip in an earlier segment is corruption Open refuses.
	first := filepath.Base(segs[0])
	rep3 := flip(segs[0])
	if rep3.OK || rep3.TornTail || len(rep3.Problems) == 0 || !strings.Contains(rep3.Problems[0], first) {
		t.Fatalf("earlier-segment damage: OK=%v TornTail=%v problems=%q, want a problem naming %s", rep3.OK, rep3.TornTail, rep3.Problems, first)
	}
}

// TestCompactCrashWindowReplaysExactly is the compaction crash-window
// gate: an injected fault between snapshot write and covered-segment
// removal leaves BOTH the snapshot and the covered segments on disk.
// The next Open must replay exactly (no doubled edges from replaying
// covered records over the snapshot) and clean the leftovers.
func TestCompactCrashWindowReplaysExactly(t *testing.T) {
	dir := t.TempDir()
	plan, err := faultinject.Parse("seed=1,error=1,sites=edgelog.compact.remove")
	if err != nil {
		t.Fatal(err)
	}
	l, _ := mustOpen(t, dir, Options{SegmentBytes: 128, Chaos: plan})
	var all []temporal.Edge
	for i := 0; i < 10; i++ {
		b := edgeBatch(i, 2)
		if _, _, err := l.Append("c", uint64(i+1), b); err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	segsBefore := l.SegmentCount()
	if segsBefore < 3 {
		t.Fatalf("want >=3 segments, got %d", segsBefore)
	}
	// The injected fault fires in the crash window: snapshot written,
	// segments rotated, covered segments NOT removed.
	err = l.WriteSnapshot(&Snapshot{Seq: 10, Edges: append([]temporal.Edge(nil), all...)})
	if err == nil {
		t.Fatal("chaos plan at edgelog.compact.remove did not fire")
	}
	l.Close()

	// The directory now holds snapshot + covered segments — the on-disk
	// state of a crash mid-compaction.
	if snap, err := LoadSnapshot(dir); err != nil || snap == nil || snap.Seq != 10 {
		t.Fatalf("snapshot must be durable before the crash window: %+v err=%v", snap, err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("covered segments should still exist, found %d", len(segs))
	}

	l2, res := mustOpen(t, dir, Options{SegmentBytes: 128})
	if res.Truncated {
		t.Fatalf("crash-window reopen reported truncation: %s", res.TruncateAt)
	}
	if got := allEdges(res.Snapshot, res.Records); !reflect.DeepEqual(got, all) {
		t.Fatalf("crash-window replay mismatch: got %d edges want %d (covered records must not double-apply)", len(got), len(all))
	}
	if l2.NextSeq() != 11 {
		t.Fatalf("nextSeq after crash-window reopen = %d, want 11", l2.NextSeq())
	}
	// Open cleans the leftover covered segments.
	if got := l2.SegmentCount(); got != 1 {
		t.Fatalf("leftover covered segments not cleaned: %d segments", got)
	}
	if _, _, err := l2.Append("c", 11, edgeBatch(50, 1)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	// And the cleaned log replays cleanly again.
	l3, res3 := mustOpen(t, dir, Options{SegmentBytes: 128})
	defer l3.Close()
	want := append(append([]temporal.Edge(nil), all...), edgeBatch(50, 1)...)
	if got := allEdges(res3.Snapshot, res3.Records); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-cleanup replay mismatch: %d vs %d edges", len(got), len(want))
	}
}
