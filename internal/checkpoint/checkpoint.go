// Package checkpoint provides crash-safe progress snapshots for long
// mining runs. The chunk scheduler's unit of restartable work is the
// chunk (mackey.partitionRoots for the trie executor, centre ranges for
// the star kernels): chunks are mutually independent complete search
// trees, so a run that records which chunks finished — plus each chunk's
// partial counts — can be killed at any instant and resumed
// count-identically by mining only the missing chunks and merging.
//
// One file holds one query: a section (Run) per scheduler run, in the
// order the query starts them — one for a single motif, one per co-mined
// group and per star kernel for a motif set. The on-disk format is
// versioned JSON (Schema "mint.checkpoint/v2"), written via temp-file +
// fsync + rename (internal/atomicio), so a crash mid-write leaves the
// previous good snapshot intact. Each section is bound to its run by a
// fingerprint (graph, route, motifs, δ and the chunk boundaries); the
// resuming miner refuses a section whose fingerprint does not match, so
// a stale file can never silently corrupt counts.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mint/internal/atomicio"
)

// Schema identifies the checkpoint JSON layout; bump on incompatible
// changes so resume can reject snapshots from older binaries.
const Schema = "mint.checkpoint/v2"

// Chunk records one completed chunk: its index in the bounds table and
// an engine-specific payload (the mackey miner stores the chunk's Stats
// and per-motif counts there) merged back on resume.
type Chunk struct {
	Index   int             `json:"index"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Poison records a chunk quarantined by the supervisor: it failed
// MaxAttempts times and was excluded from the run rather than retried
// forever. Resume does not re-mine poisoned chunks unless the caller
// clears them.
type Poison struct {
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error,omitempty"`
}

// Run is one scheduler run's section.
type Run struct {
	Fingerprint string `json:"fingerprint"`
	// Bounds are the chunk boundaries of the partitioned work (len =
	// chunks+1). Resume reuses them verbatim, so a resumed run is
	// chunk-compatible regardless of its worker count.
	Bounds   []int64  `json:"bounds"`
	Chunks   []Chunk  `json:"chunks"`
	Poisoned []Poison `json:"poisoned,omitempty"`
}

// File is one checkpoint snapshot.
type File struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Load reads and validates a checkpoint: the schema must match, and
// every recorded chunk and poisoned index must name a chunk of its
// section's bounds, a poisoned one at most once. A missing file returns
// (nil, nil) — "nothing to resume" is not an error.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("checkpoint: %s has schema %q, want %q", path, f.Schema, Schema)
	}
	for ri, r := range f.Runs {
		n := len(r.Bounds) - 1
		for _, c := range r.Chunks {
			if c.Index < 0 || c.Index >= n {
				return nil, fmt.Errorf("checkpoint: %s run %d records chunk %d outside its %d-chunk bounds",
					path, ri, c.Index, n)
			}
		}
		poisoned := make(map[int]bool, len(r.Poisoned))
		for _, p := range r.Poisoned {
			if p.Index < 0 || p.Index >= n || poisoned[p.Index] {
				return nil, fmt.Errorf("checkpoint: %s run %d poisons chunk %d: outside its %d-chunk bounds or repeated",
					path, ri, p.Index, n)
			}
			poisoned[p.Index] = true
		}
	}
	return &f, nil
}

// Writer accumulates chunk completions and flushes them atomically to one
// path. All methods are safe for concurrent use and nil-receiver-safe, so
// the supervisor calls them unconditionally whether or not checkpointing
// is enabled. A mark's own rewrite may fail; the next rewrite carries its
// record again, so only Flush reports an error.
type Writer struct {
	mu          sync.Mutex
	path        string
	every       int
	minInterval time.Duration
	lastFlush   time.Time
	pending     int
	f           File
}

// NewWriter starts a checkpoint writer for path, seeded with the
// sections of prev (a loaded snapshot being resumed; nil for a fresh
// run). every controls flush granularity: the snapshot is rewritten
// after that many new chunk completions (and always on Flush); values
// < 1 mean 1.
func NewWriter(path string, prev *File, every int) *Writer {
	w := &Writer{path: path, every: max(every, 1), f: File{Schema: Schema}}
	if prev != nil {
		for _, r := range prev.Runs {
			r.Chunks = append([]Chunk(nil), r.Chunks...)
			r.Poisoned = append([]Poison(nil), r.Poisoned...)
			w.f.Runs = append(w.f.Runs, r)
		}
	}
	return w
}

// SetMinInterval rate-limits MarkDone-triggered flushes: once a flush
// lands, further count-triggered flushes are suppressed for d. Each
// flush is an fsync'd file rewrite, so on fast workloads an unthrottled
// writer can spend more time in fsync than mining; the crash-safety
// cost is bounded — at most d of completed work can need re-mining.
// MarkPoisoned and Flush ignore the throttle. d <= 0 disables it.
// Returns the writer for chaining; not safe to call concurrently with
// marks.
func (w *Writer) SetMinInterval(d time.Duration) *Writer {
	if w != nil {
		w.minInterval = d
	}
	return w
}

// AddRun appends a fresh section and returns its index.
func (w *Writer) AddRun(fingerprint string, bounds []int64) int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Runs = append(w.f.Runs, Run{Fingerprint: fingerprint, Bounds: bounds, Chunks: []Chunk{}})
	return len(w.f.Runs) - 1
}

// MarkDone records one completed chunk of section run; payload (may be
// nil) is marshaled into the chunk record. The snapshot is rewritten
// when the pending count reaches the writer's granularity.
func (w *Writer) MarkDone(run, index int, payload any) {
	if w == nil {
		return
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return // an unrecorded chunk is simply mined again on resume
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r := &w.f.Runs[run]
	r.Chunks = append(r.Chunks, Chunk{Index: index, Payload: raw})
	w.pending++
	if w.pending >= w.every &&
		(w.minInterval <= 0 || time.Since(w.lastFlush) >= w.minInterval) {
		w.flushLocked() //nolint:errcheck // the next rewrite carries this record again
	}
}

// MarkPoisoned records a quarantined chunk of section run and rewrites
// the snapshot at once — poisoning is rare and load-bearing for resume
// decisions.
func (w *Writer) MarkPoisoned(run, index, attempts int, errMsg string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r := &w.f.Runs[run]
	r.Poisoned = append(r.Poisoned, Poison{Index: index, Attempts: attempts, Error: errMsg})
	w.flushLocked() //nolint:errcheck // the next rewrite carries this record again
}

// Flush writes the whole snapshot and reports whether it landed. Call
// at run end so the final snapshot records every completed chunk.
func (w *Writer) Flush() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	w.pending = 0
	w.lastFlush = time.Now()
	data, err := json.MarshalIndent(&w.f, "", " ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(w.path, append(data, '\n'), 0o644)
}

// Fingerprint renders a domain-tagged identity string from a slice of
// ints: "<domain>/<16 hex digits>". Two callers share it: the
// scheduler's run fingerprints (binding a checkpoint section to its
// graph, route, motifs and partition) and the sharding layer's
// dataset-identity fingerprints (letting a scatter-gather coordinator
// refuse to merge counts from shards that are not serving the same
// data).
func Fingerprint(domain string, ints []int64) string {
	return fmt.Sprintf("%s/%016x", domain, HashInts(ints))
}

// HashInts folds a slice of ints into a stable 64-bit FNV-1a digest;
// used to bind chunk boundaries into run fingerprints.
func HashInts(xs []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		for s := 0; s < 64; s += 8 {
			h ^= uint64(byte(x >> s))
			h *= 1099511628211
		}
	}
	return h
}
