// Read-only WAL fsck: the backend of `mine -wal-verify`. Verify walks a
// log directory exactly as Open would — snapshot first, then every
// segment in sequence order — but never truncates, rewrites, or deletes
// anything. Its job is to let an operator decide whether a diverged
// follower's log is salvageable before any process touches it.
package edgelog

import "fmt"

// VerifyReport is the result of a read-only log inspection.
type VerifyReport struct {
	Dir string `json:"dir"`

	// Snapshot summary (zero values when no snapshot exists).
	HasSnapshot         bool   `json:"has_snapshot"`
	SnapshotSeq         uint64 `json:"snapshot_seq,omitempty"`
	SnapshotFingerprint string `json:"snapshot_fingerprint,omitempty"`
	SnapshotEdges       int    `json:"snapshot_edges,omitempty"`
	SnapshotStanding    int    `json:"snapshot_standing,omitempty"`

	// Epoch is the replication epoch the log would recover to: the
	// snapshot's epoch raised by any replayable epoch records.
	Epoch uint64 `json:"epoch"`
	// NextSeq is the sequence the next append would get after recovery.
	NextSeq uint64 `json:"next_seq"`

	Segments []SegmentReport `json:"segments"`

	// TornTail reports damage in the final segment — what a crash
	// leaves behind, repaired by Open's truncation. TornAt says where
	// (segment@offset) and why.
	TornTail bool   `json:"torn_tail"`
	TornAt   string `json:"torn_at,omitempty"`
	// Problems lists everything Open would refuse to repair. Empty
	// Problems means the log is salvageable (OK).
	Problems []string `json:"problems,omitempty"`
	OK       bool     `json:"ok"`
}

// SegmentReport is one segment's verification summary.
type SegmentReport struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"first_seq"`
	Bytes    int64  `json:"bytes"`
	// Records is how many records decoded with valid CRCs and would
	// replay; Covered is how many decoded fine but are already folded
	// into the snapshot.
	Records int `json:"records"`
	Covered int `json:"covered_records,omitempty"`
	// Status is "ok", "covered" (entirely below the snapshot; removable),
	// "torn-tail" (repairable, final segment only), or "corrupt: <why>".
	Status string `json:"status"`
}

// Verify inspects the log in dir without mutating it and reaches Open's
// verdict: it runs the same segment reader, the same replay rules and
// the same damage rule. Damage in the final segment is the torn tail
// Open would cut (TornTail, status "torn-tail", TornAt names the offset);
// damage in any earlier segment, a sequence gap, or a bad snapshot is a
// problem Open refuses. The returned error covers only environment
// failures (unreadable directory); log damage is reported in the
// VerifyReport itself.
func Verify(dir string) (*VerifyReport, error) {
	rep := &VerifyReport{Dir: dir}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}

	snap, err := LoadSnapshot(dir)
	if err != nil {
		problem("snapshot: %v", err)
	} else if snap != nil {
		rep.HasSnapshot = true
		rep.SnapshotSeq = snap.Seq
		rep.SnapshotFingerprint = snap.Fingerprint
		rep.SnapshotEdges = len(snap.Edges)
		rep.SnapshotStanding = len(snap.Standing)
	}
	var st logState
	st.adopt(snap)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		sr := SegmentReport{Name: seg.name, FirstSeq: seg.firstSeq, Status: "ok"}
		sc, err := readSegment(dir, seg.name, -1, func(rec Record, off int64, _ int) error {
			covered, err := st.replay(rec, seg.name, off)
			if covered {
				sr.Covered++
			} else if err == nil {
				sr.Records++
			}
			return err
		})
		sr.Bytes = sc.size
		switch {
		case err == nil && sc.damage == nil:
			if sr.Records == 0 && sr.Covered > 0 {
				sr.Status = "covered"
			}
		case err == nil && i == len(segs)-1 && sc.cuttable():
			sr.Status = "torn-tail"
			rep.TornTail = true
			rep.TornAt = fmt.Sprintf("%s@%d: %v", seg.name, sc.end, sc.damage)
		default:
			if err == nil {
				err = sc.refusal(seg.name)
			}
			sr.Status = fmt.Sprintf("corrupt: %v", err)
			problem("%v", err)
		}
		rep.Segments = append(rep.Segments, sr)
	}

	rep.NextSeq, rep.Epoch = st.nextSeq, st.epoch
	rep.OK = len(rep.Problems) == 0
	return rep, nil
}
