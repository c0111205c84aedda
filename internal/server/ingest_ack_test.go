package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"mint"
)

// TestIngestConcurrentAcksMatchReplay: several writers POST batches at
// once. Every ack's (seq, edges, fingerprint) must describe the live set
// right after that ack's own batch — what a cold replay of the WAL holds
// at that seq — never a batch another writer appended after it.
func TestIngestConcurrentAcksMatchReplay(t *testing.T) {
	s, ts := newIngestServer(t, t.TempDir(), func(c *Config) { c.Ingest.Window = 300 })
	const writers, perWriter = 4, 25
	var mu sync.Mutex
	acks := map[uint64]IngestResponse{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				req := IngestRequest{ClientID: fmt.Sprint("w", w), ClientSeq: uint64(i + 1)}
				base := int64(i*20 - rng.Intn(60))
				for j := 0; j < 1+rng.Intn(8); j++ {
					req.Edges = append(req.Edges, IngestEdge{Src: rng.Int63n(9), Dst: rng.Int63n(9), Time: base + rng.Int63n(10)})
				}
				out, err := postIngest(ts.URL, req)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acks[out.Seq] = out
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st, err := s.LiveStream()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := st.ReadRecords(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay, _, err := mint.OpenStream(t.TempDir(), mint.StreamOptions{Window: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	checked := 0
	for _, r := range recs {
		if err := replay.ApplyReplicated(r); err != nil {
			t.Fatalf("replay seq %d: %v", r.Seq, err)
		}
		ack, ok := acks[r.Seq]
		if !ok {
			continue
		}
		if info := replay.Info(); ack.Edges != info.Edges || ack.Fingerprint != info.Fingerprint {
			t.Fatalf("ack for seq %d says (%d, %s); replay to that seq has (%d, %s)",
				r.Seq, ack.Edges, ack.Fingerprint, info.Edges, info.Fingerprint)
		}
		checked++
	}
	if checked != writers*perWriter {
		t.Fatalf("checked %d acks, want %d", checked, writers*perWriter)
	}
}

// postIngest sends one batch, re-sending it under the same client_seq
// while the server sheds it (429/503), as a client would.
func postIngest(url string, req IngestRequest) (IngestResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return IngestResponse{}, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(url+"/v1/edges", "application/json", bytes.NewReader(body))
		if err != nil {
			return IngestResponse{}, err
		}
		var out IngestResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		switch {
		case (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && attempt < 100:
			time.Sleep(5 * time.Millisecond)
			continue
		case resp.StatusCode != http.StatusOK:
			return out, fmt.Errorf("POST /v1/edges %s/%d: status %d", req.ClientID, req.ClientSeq, resp.StatusCode)
		case err != nil:
			return out, err
		case out.Dup:
			return out, fmt.Errorf("batch %s/%d acked as a duplicate", req.ClientID, req.ClientSeq)
		}
		return out, nil
	}
}
