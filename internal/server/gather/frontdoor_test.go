package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mint"
	"mint/internal/obs"
	"mint/internal/runctl"
	"mint/internal/server"
)

// Golden front-door fixtures: the worker and the coordinator answer the
// same request set, and every answer's status, Retry-After / X-Trace-Id
// presence and JSON body (wall_ms and trace_id zeroed, shard URLs
// scrubbed) must match testdata/frontdoor_<role>.json byte for byte.
// Regenerate with: go test ./internal/server/gather/ -run TestFrontDoorGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the golden front-door fixtures")

// frontRecord is one request's observable outcome at the front door.
type frontRecord struct {
	Case       string          `json:"case"`
	Status     int             `json:"status"`
	RetryAfter bool            `json:"retry_after"`
	TraceID    bool            `json:"trace_id"`
	Body       json.RawMessage `json:"body"`
}

// frontRole is one mintd role under test: its base URL, its admission
// metrics (to sequence the shed case on progress, not time), its drain,
// and the shard URLs to scrub from bodies.
type frontRole struct {
	base   string
	reg    *obs.Registry
	drain  func(context.Context) error
	shards []string
}

// repeatByte is an endless reader of one byte (an oversized body that
// costs the client nothing to produce).
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// gatedLoader serves "g" at once and "slow" only after gate closes, so a
// request on "slow" holds its admission slot for as long as the test
// needs.
func gatedLoader(g *mint.Graph, gate <-chan struct{}) func(context.Context, string) (*mint.Graph, error) {
	load := graphLoader(map[string]*mint.Graph{"g": g})
	return func(ctx context.Context, name string) (*mint.Graph, error) {
		if name == "slow" {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return g, nil
		}
		return load(ctx, name)
	}
}

func startFrontRole(t *testing.T, role string, adm server.AdmissionConfig, gate <-chan struct{}) frontRole {
	t.Helper()
	g := testGraph()
	caps := runctl.Caps{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second}
	reg := obs.New("frontdoor")
	if role == "worker" {
		s := server.New(server.Config{Loader: gatedLoader(g, gate), Caps: caps, Admission: adm, Obs: reg})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return frontRole{base: ts.URL, reg: reg, drain: s.Drain}
	}
	var urls []string
	for i := 0; i < 2; i++ {
		_, ts := newWorker(t, nil, func(cfg *server.Config) { cfg.Loader = gatedLoader(g, gate) })
		urls = append(urls, ts.URL)
	}
	c, err := New(Config{Shards: urls, Caps: caps, Admission: adm, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return frontRole{base: ts.URL, reg: reg, drain: c.Drain, shards: urls}
}

// call issues one request and reduces the answer to its golden record.
func (fr frontRole) call(t *testing.T, name, method, path string, body io.Reader) frontRecord {
	t.Helper()
	req, err := http.NewRequest(method, fr.base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: read: %v", name, err)
	}
	for i, u := range fr.shards {
		raw = bytes.ReplaceAll(raw, []byte(u), []byte("shard"+string(rune('0'+i))))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: body is not JSON (%v): %s", name, err, raw)
	}
	if m, ok := v.(map[string]any); ok {
		if _, ok := m["wall_ms"]; ok {
			m["wall_ms"] = 0
		}
		if _, ok := m["trace_id"]; ok {
			m["trace_id"] = ""
		}
	}
	norm, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return frontRecord{
		Case:       name,
		Status:     resp.StatusCode,
		RetryAfter: resp.Header.Get("Retry-After") != "",
		TraceID:    resp.Header.Get("X-Trace-Id") != "",
		Body:       norm,
	}
}

func (fr frontRole) post(t *testing.T, name, path string, body string) frontRecord {
	t.Helper()
	return fr.call(t, name, http.MethodPost, path, strings.NewReader(body))
}

// waitGauge blocks until the role's admission gauge reaches want.
func (fr frontRole) waitGauge(t *testing.T, name string, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); fr.reg.Gauge(name).Value() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d", name, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrontDoorGolden pins the response contract both mintd roles share:
// exact answers, 400s for caller mistakes, 413 past the body bound, a
// 429 shed with Retry-After, and 503 after drain — each echoing the
// trace id.
func TestFrontDoorGolden(t *testing.T) {
	for _, role := range []string{"worker", "coordinator"} {
		t.Run(role, func(t *testing.T) {
			gate := make(chan struct{})
			close(gate)
			fr := startFrontRole(t, role, server.AdmissionConfig{}, gate)
			var recs []frontRecord
			add := func(r frontRecord) { recs = append(recs, r) }

			add(fr.post(t, "count_single", "/v1/count", `{"dataset":"g","motif":"M1","delta_seconds":500}`))
			add(fr.post(t, "count_batch", "/v1/count", `{"dataset":"g","motifs":["M1","M2","M3"],"delta_seconds":500}`))
			page := fr.post(t, "enumerate_page", "/v1/enumerate", `{"dataset":"g","motif":"M1","delta_seconds":500,"limit":5}`)
			add(page)
			var first server.EnumerateResponse
			if err := json.Unmarshal(page.Body, &first); err != nil || first.NextPageToken == "" {
				t.Fatalf("first page has no next_page_token (%v): %s", err, page.Body)
			}
			tok, _ := json.Marshal(first.NextPageToken)
			add(fr.post(t, "enumerate_next_page", "/v1/enumerate",
				`{"dataset":"g","motif":"M1","delta_seconds":500,"limit":5,"page_token":`+string(tok)+`}`))
			add(fr.post(t, "profile", "/v1/profile", `{"dataset":"g","delta_seconds":500}`))
			add(fr.post(t, "datasetinfo", "/v1/datasetinfo", `{"dataset":"g"}`))
			add(fr.post(t, "bad_motif", "/v1/count", `{"dataset":"g","motif":"M9"}`))
			add(fr.post(t, "bad_priority", "/v1/count", `{"dataset":"g","motif":"M1","priority":"urgent"}`))
			add(fr.post(t, "enumerate_limit_zero", "/v1/enumerate", `{"dataset":"g","motif":"M1","limit":0}`))
			add(fr.call(t, "oversized_body", http.MethodPost, "/v1/count", io.MultiReader(
				strings.NewReader(`{"dataset":"`),
				io.LimitReader(repeatByte('a'), server.DefaultMaxBodyBytes+1),
				strings.NewReader(`"}`))))
			add(fr.call(t, "readyz", http.MethodGet, "/readyz", nil))
			add(frontShed(t, role))

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := fr.drain(ctx); err != nil {
				t.Fatal(err)
			}
			add(fr.post(t, "count_after_drain", "/v1/count", `{"dataset":"g","motif":"M1","delta_seconds":500}`))
			add(fr.call(t, "readyz_draining", http.MethodGet, "/readyz", nil))

			got, err := json.MarshalIndent(recs, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "frontdoor_"+role+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				var wantRecs []frontRecord
				if err := json.Unmarshal(want, &wantRecs); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				for i := range recs {
					if i >= len(wantRecs) {
						t.Errorf("extra case %s", recs[i].Case)
						continue
					}
					g, _ := json.Marshal(recs[i])
					w, _ := json.Marshal(wantRecs[i])
					if !bytes.Equal(g, w) {
						t.Errorf("case %s:\n got  %s\n want %s", recs[i].Case, g, w)
					}
				}
				if len(wantRecs) > len(recs) {
					t.Errorf("%d golden cases missing", len(wantRecs)-len(recs))
				}
			}
		})
	}
}

// frontShed drives a fresh one-slot, one-waiter instance of the role
// into shedding: one request holds the slot (its dataset load is
// gated), one low-priority waiter fills the queue, and the next
// low-priority request must be shed with Retry-After. Each step waits on
// the admission gauges, never on elapsed time.
func frontShed(t *testing.T, role string) frontRecord {
	t.Helper()
	gate := make(chan struct{})
	fr := startFrontRole(t, role, server.AdmissionConfig{MaxInflight: 1, MaxQueue: 1, MaxWait: 30 * time.Second}, gate)
	done := make(chan struct{}, 2)
	send := func(body string) {
		resp, err := http.Post(fr.base+"/v1/count", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		done <- struct{}{}
	}
	go send(`{"dataset":"slow","motif":"M1","delta_seconds":500}`)
	fr.waitGauge(t, "admission.inflight", 1)
	go send(`{"dataset":"g","motif":"M1","delta_seconds":500,"priority":"low"}`)
	fr.waitGauge(t, "admission.queued", 1)
	rec := fr.post(t, "shed", "/v1/count", `{"dataset":"g","motif":"M1","delta_seconds":500,"priority":"low"}`)
	close(gate)
	<-done
	<-done
	return rec
}
