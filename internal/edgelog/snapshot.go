// Snapshot + compaction: a snapshot is the log's state at one sequence —
// the live (post-eviction) edge set, the per-client idempotency ledger,
// and the eviction cutoff — written atomically so the previous snapshot
// survives a crash mid-write. Once a snapshot lands, every segment whose
// records it fully covers is deleted; replay then starts from the
// snapshot instead of the beginning of time.
package edgelog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"

	"mint/internal/atomicio"
	"mint/internal/checkpoint"
	"mint/internal/temporal"
)

const (
	snapshotName  = "snapshot.snap"
	snapMagic     = "MINTSNP1"
	snapMagicLen  = 8
	snapHeaderLen = snapMagicLen + 8 // magic + length + crc
)

// Snapshot is the durable in-memory state of a stream at sequence Seq.
type Snapshot struct {
	// Seq is the last WAL sequence folded into this snapshot; replay
	// resumes at Seq+1.
	Seq uint64 `json:"seq"`
	// Cutoff is the sliding-window eviction cutoff: every edge with
	// Time < Cutoff has been evicted, and Edges holds none of them.
	// HasCutoff distinguishes "cutoff is the zero timestamp" from "no
	// eviction has happened" — timestamps may be negative, so the zero
	// value of Cutoff alone cannot. (Snapshots written before the field
	// existed decode with HasCutoff false; readers fall back to
	// Cutoff != 0 for those.)
	Cutoff    temporal.Timestamp `json:"cutoff"`
	HasCutoff bool               `json:"has_cutoff,omitempty"`
	// Edges is the live edge set. mint.Stream writes it in graph order
	// (time-sorted, ties in append order); older writers stored append
	// order. A stable sort by time maps either to the same graph, so
	// loaders sort and the tie order must be preserved.
	Edges []temporal.Edge `json:"edges"`
	// Clients is the idempotency ledger: last applied clientSeq per id.
	Clients map[string]uint64 `json:"clients,omitempty"`
	// Epoch is the log's replication epoch at snapshot time; compaction
	// may delete the epoch record that raised it, so the snapshot must
	// carry it. Zero (older snapshots) means epoch 1.
	Epoch uint64 `json:"epoch,omitempty"`
	// Standing is the standing-query board at snapshot time, so
	// registrations survive compaction of their KindStanding records.
	Standing []StandingSpec `json:"standing,omitempty"`
	// Fingerprint binds the snapshot to its edge content
	// (EdgesFingerprint); Load recomputes and refuses a mismatch.
	Fingerprint string `json:"fingerprint"`
}

// StandingSpec is one persisted standing-query registration.
type StandingSpec struct {
	Name  string `json:"name"`
	Spec  string `json:"spec"`
	Delta int64  `json:"delta"`
}

// EdgesFingerprint renders the identity of an edge sequence (order
// matters — it is the tie-break for equal timestamps). Snapshots carry
// it as their content check.
func EdgesFingerprint(edges []temporal.Edge) string {
	ints := make([]int64, 0, 3*len(edges)+1)
	ints = append(ints, int64(len(edges)))
	for _, e := range edges {
		ints = append(ints, int64(e.Src), int64(e.Dst), int64(e.Time))
	}
	return checkpoint.Fingerprint("edgelog", ints)
}

// WriteSnapshot atomically persists snap and compacts the log: the active
// segment is sealed (so it can become compactable later), and every
// segment fully covered by snap.Seq is deleted. The chaos site
// edgelog.compact fires before any of it.
func (l *Log) WriteSnapshot(snap *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("edgelog: snapshot on closed log")
	}
	if l.broken {
		return ErrBroken
	}
	if snap.Seq >= l.nextSeq {
		return fmt.Errorf("edgelog: snapshot seq %d is beyond the log (next %d)", snap.Seq, l.nextSeq)
	}
	if err := l.opts.Chaos.Fire("edgelog.compact", int64(snap.Seq), 0); err != nil {
		return err
	}
	if snap.Clients == nil {
		// Default the idempotency ledger from the log's own state, so
		// callers snapshotting "everything up to seq" cannot lose it.
		snap.Clients = maps.Clone(l.clients)
	}
	if snap.Epoch == 0 {
		snap.Epoch = l.epoch
	}

	if err := l.writeSnapshotFileLocked(snap); err != nil {
		return err
	}
	l.opts.Obs.Counter("edgelog.snapshots").Add(1)

	// Seal the active segment if it holds any records, so that a snapshot
	// covering them lets the next compaction drop it.
	if l.size > headerLen {
		if err := l.rotateLocked(); err != nil {
			// The snapshot itself landed; failing to rotate only delays
			// compaction of the current segment.
			return fmt.Errorf("edgelog: snapshot written but rotation failed: %w", err)
		}
	}

	// The crash window: the snapshot is durable but covered segments are
	// still on disk. An error here leaves leftovers for Open to clean.
	if err := l.opts.Chaos.Fire("edgelog.compact.remove", int64(snap.Seq), 0); err != nil {
		return err
	}

	if err := l.removeCoveredLocked(snap.Seq, "edgelog.compact_deleted"); err != nil {
		return err
	}
	l.obsGauges()
	return nil
}

// removeCoveredLocked deletes the segments a snapshot at seq fully covers
// and counts them under counter. A segment is covered when the next one
// starts at or before seq+1 (records are seq-contiguous), so covered
// segments are a prefix and the last segment is never removed.
func (l *Log) removeCoveredLocked(seq uint64, counter string) error {
	removed := 0
	for len(l.segments) > 1 && l.segments[1].firstSeq <= seq+1 {
		if err := os.Remove(filepath.Join(l.dir, l.segments[0].name)); err != nil {
			return err
		}
		l.segments = l.segments[1:]
		removed++
	}
	if removed == 0 {
		return nil
	}
	if err := atomicio.SyncDir(l.dir); err != nil {
		return err
	}
	l.opts.Obs.Counter(counter).Add(int64(removed))
	return nil
}

// writeSnapshotFileLocked fingerprints snap and writes it atomically to
// the log's snapshot file.
func (l *Log) writeSnapshotFileLocked(snap *Snapshot) error {
	snap.Fingerprint = EdgesFingerprint(snap.Edges)
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, snapHeaderLen+len(payload))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	return atomicio.WriteFile(filepath.Join(l.dir, snapshotName), buf, 0o644)
}

// InstallSnapshot bootstraps an empty log from a snapshot shipped by a
// replication source whose older records were compacted away. It refuses
// a log that already holds any history — installing over local records
// would silently rewrite it, which is divergence, not catch-up. On
// success the log's state (nextSeq, epoch, clients) matches the
// snapshot and appends resume at snap.Seq+1.
func (l *Log) InstallSnapshot(snap *Snapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("edgelog: snapshot install on closed log")
	}
	if l.broken {
		return ErrBroken
	}
	if l.nextSeq != 1 || l.size > headerLen || len(l.segments) > 1 {
		return fmt.Errorf("edgelog: refusing snapshot install over existing history (next seq %d): local and source logs diverged", l.nextSeq)
	}
	if snap == nil || snap.Seq == 0 {
		return fmt.Errorf("edgelog: refusing to install an empty snapshot")
	}
	cp := *snap
	if err := l.writeSnapshotFileLocked(&cp); err != nil {
		return err
	}
	l.opts.Obs.Counter("edgelog.snapshot_installs").Add(1)

	// Drop the empty active segment: its name (wal-…01) no longer matches
	// its first sequence, and openFreshSegmentLocked will mint a correct
	// one at snap.Seq+1.
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	if len(l.segments) == 1 {
		if err := os.Remove(filepath.Join(l.dir, l.segments[0].name)); err != nil {
			return err
		}
		if err := atomicio.SyncDir(l.dir); err != nil {
			return err
		}
	}
	l.segments = nil
	l.active = segment{}
	l.size = 0
	l.activeSynced = 0
	l.unsynced = 0

	l.adopt(&cp)
	return l.openFreshSegmentLocked()
}

// LoadSnapshot reads and verifies the snapshot file in dir without
// opening the log. A missing file is (nil, nil); any damage is a loud
// error — snapshots are written atomically, so a torn one means the
// rename contract was violated and nothing about the directory can be
// trusted. Open, Verify and the replication snapshot endpoint read
// snapshots through it.
func LoadSnapshot(dir string) (*Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	const name = snapshotName
	if len(data) < snapHeaderLen {
		return nil, &CorruptError{Segment: name, Offset: 0,
			Reason: fmt.Sprintf("snapshot is %d bytes, want at least %d", len(data), snapHeaderLen)}
	}
	if string(data[:snapMagicLen]) != snapMagic {
		return nil, &CorruptError{Segment: name, Offset: 0, Reason: fmt.Sprintf("bad snapshot magic %q", data[:snapMagicLen])}
	}
	plen := binary.LittleEndian.Uint32(data[snapMagicLen : snapMagicLen+4])
	wantCRC := binary.LittleEndian.Uint32(data[snapMagicLen+4 : snapMagicLen+8])
	if uint64(len(data)) != snapHeaderLen+uint64(plen) {
		return nil, &CorruptError{Segment: name, Offset: snapMagicLen,
			Reason: fmt.Sprintf("snapshot declares %d payload bytes, file has %d", plen, len(data)-snapHeaderLen)}
	}
	payload := data[snapHeaderLen:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, &CorruptError{Segment: name, Offset: snapHeaderLen,
			Reason: fmt.Sprintf("snapshot crc mismatch: stored %08x, computed %08x", wantCRC, got)}
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, &CorruptError{Segment: name, Offset: snapHeaderLen, Reason: fmt.Sprintf("snapshot json: %v", err)}
	}
	if want := EdgesFingerprint(snap.Edges); snap.Fingerprint != want {
		return nil, &CorruptError{Segment: name, Offset: snapHeaderLen,
			Reason: fmt.Sprintf("snapshot fingerprint %q does not match edges (%q)", snap.Fingerprint, want)}
	}
	return &snap, nil
}
