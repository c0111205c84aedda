package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type payload struct {
	Nodes int64 `json:"nodes"`
}

func TestWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	w := NewWriter(path, nil, 1)
	if run := w.AddRun("fp-1", []int64{0, 10, 20, 30}); run != 0 {
		t.Fatalf("first section is %d", run)
	}
	if run := w.AddRun("fp-2", []int64{0, 5}); run != 1 {
		t.Fatalf("second section is %d", run)
	}
	w.MarkDone(0, 0, payload{Nodes: 42})
	w.MarkDone(0, 2, nil)
	w.MarkPoisoned(0, 1, 2, "panic: boom")
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	f, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(f.Runs) != 2 || f.Runs[1].Fingerprint != "fp-2" || len(f.Runs[1].Chunks) != 0 {
		t.Fatalf("sections %+v", f.Runs)
	}
	r := f.Runs[0]
	if r.Fingerprint != "fp-1" || len(r.Chunks) != 2 || len(r.Poisoned) != 1 {
		t.Fatalf("loaded %d chunks, %d poisoned", len(r.Chunks), len(r.Poisoned))
	}
	if r.Chunks[0].Index != 0 || r.Chunks[1].Index != 2 || r.Poisoned[0].Index != 1 {
		t.Fatalf("section 0 = %+v", r)
	}
	var pl payload
	if err := json.Unmarshal(r.Chunks[0].Payload, &pl); err != nil {
		t.Fatalf("chunk 0 payload: %v", err)
	}
	if pl.Nodes != 42 {
		t.Fatalf("chunk 0 = %+v payload %+v", r.Chunks[0], pl)
	}
	if len(r.Bounds) != 4 || r.Bounds[3] != 30 {
		t.Fatalf("bounds %v", r.Bounds)
	}

	// Resumed-writer flushes must carry the prior sections and chunks.
	w2 := NewWriter(path, f, 1)
	w2.MarkDone(0, 1, nil)
	w2.MarkDone(1, 0, nil)
	f2, err := Load(path)
	if err != nil {
		t.Fatalf("Load 2: %v", err)
	}
	if len(f2.Runs) != 2 || len(f2.Runs[0].Chunks) != 3 || len(f2.Runs[1].Chunks) != 1 {
		t.Fatalf("resumed snapshot has sections %+v", f2.Runs)
	}
	if len(f.Runs[0].Chunks) != 2 {
		t.Fatalf("the resumed writer appended into the loaded snapshot")
	}
}

// TestFlushReportsWriteFailure: a snapshot that cannot be written is
// Flush's error, not a silent loss.
func TestFlushReportsWriteFailure(t *testing.T) {
	w := NewWriter(filepath.Join(t.TempDir(), "missing", "ck.json"), nil, 1)
	w.AddRun("fp", []int64{0, 5})
	w.MarkDone(0, 0, nil)
	if err := w.Flush(); err == nil {
		t.Fatal("Flush into a missing directory reported no error")
	}
}

func TestLoadRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	// Missing file: nothing to resume, not an error.
	if f, err := Load(filepath.Join(dir, "absent.json")); f != nil || err != nil {
		t.Fatalf("missing file: got (%v, %v)", f, err)
	}
	for _, tc := range []struct {
		name, body, want string
	}{
		{"wrong schema", `{"schema":"other/v9"}`, "schema"},
		{"previous schema", `{"schema":"mint.checkpoint/v1","fingerprint":"mackey/0","bounds":[0,5],"chunks":[]}`, "schema"},
		// A torn non-atomic write must error, not crash.
		{"corrupt JSON", `{"schema":"mint.checkpoint/v2",`, "parsing"},
		{"chunk out of range", `{"schema":"mint.checkpoint/v2","runs":[{"bounds":[0,5],"chunks":[{"index":3}]}]}`, "bounds"},
		{"poisoned out of range", `{"schema":"mint.checkpoint/v2","runs":[{"bounds":[0,5,9],"chunks":[],"poisoned":[{"index":38}]}]}`, "poisons chunk 38"},
		{"poisoned negative", `{"schema":"mint.checkpoint/v2","runs":[{"bounds":[0,5],"chunks":[],"poisoned":[{"index":-1}]}]}`, "poisons chunk -1"},
		{"poisoned twice", `{"schema":"mint.checkpoint/v2","runs":[{"bounds":[0,5,9],"chunks":[],"poisoned":[{"index":1},{"index":1}]}]}`, "repeated"},
	} {
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Load error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

func TestNilWriterIsNoOp(t *testing.T) {
	var w *Writer
	w.AddRun("fp", nil)
	w.MarkDone(0, 0, nil)
	w.MarkPoisoned(0, 0, 0, "")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestHashIntsStable(t *testing.T) {
	a := HashInts([]int64{0, 10, 20})
	b := HashInts([]int64{0, 10, 20})
	c := HashInts([]int64{0, 10, 21})
	if a != b {
		t.Fatalf("hash not stable")
	}
	if a == c {
		t.Fatalf("hash collision on adjacent inputs (suspicious)")
	}
}
