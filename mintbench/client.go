package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"time"

	"mint"
	"mint/internal/server"
)

// liveMotifs are the standing queries and the motifs live reads rotate
// through, all at δ = 1 h.
var liveMotifs = []string{"M1", "M2", "M3"}

const liveDataset = "live"

// client sends the plan's requests and checks every answer. Static
// answers are checked as they arrive; ingest acks and live reads are
// recorded with their stream position and checked after the run
// against a replay of the stream, so the generator does no oracle work
// while it measures.
type client struct {
	p     *plan
	hc    *http.Client
	front string // static queries: the worker, or the coordinator
	live  string // ingest and live reads: the worker holding the stream

	mu       sync.Mutex
	wrong    int
	problems []string

	// writer serializes the stream: one batch (and its read) at a time,
	// so every ack and read has a single expected answer.
	writer sync.Mutex
	cursor int
	acked  int
	acks   []ackRec
	reads  []readRec
	// lost holds stream positions whose request failed: the server
	// applied nothing for them.
	lost map[int]bool
}

type ackRec struct {
	pos   int // stream operations applied, this one included
	edges int
}

type readRec struct {
	pos   int
	motif string
	got   int64
}

func newClient(p *plan, front, live string) *client {
	return &client{
		p: p, front: front, live: live, lost: map[int]bool{},
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU(), DisableCompression: true},
		},
	}
}

// bad records a wrong answer: a failed operation that also makes the
// run incorrect.
func (c *client) bad(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// note records a failed operation that is not a wrong answer (a shed,
// an error status) for the log.
func (c *client) note(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// post sends one JSON request and decodes a 200 answer into out.
func (c *client) post(s *sample, url string, in, out any) bool {
	body, err := json.Marshal(in)
	if err != nil {
		c.note("encode: %v", err)
		return false
	}
	s.sent = time.Now()
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.done = time.Now()
		c.note("POST %s: %v", url, err)
		return false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.bytes = len(data)
	s.trace = resp.Header.Get("X-Trace-Id")
	if err != nil {
		c.note("POST %s: reading answer: %v", url, err)
		return false
	}
	if resp.StatusCode != http.StatusOK {
		c.note("POST %s: status %d: %.200s", url, resp.StatusCode, data)
		return false
	}
	if err := json.Unmarshal(data, out); err != nil {
		c.bad("POST %s: undecodable answer: %v", url, err)
		return false
	}
	return true
}

func (c *client) get(url string, out any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// exec runs operation i of the sequence.
func (c *client) exec(i int) []sample {
	o := c.p.seq[i%len(c.p.seq)]
	switch o.class {
	case "count":
		return []sample{c.count(c.p.counts[o.tmpl])}
	case "batch":
		return []sample{c.batch(c.p.batch[o.tmpl])}
	case "enum":
		return []sample{c.enum(c.p.enums[o.tmpl])}
	default:
		return c.ingest()
	}
}

// exact reports whether a count answer carries no loud marker.
func exact(r *server.CountResponse) bool {
	return r.Exact && !r.Degraded && !r.Truncated && r.Partial == nil && r.Engine == mint.EngineExact
}

func (c *client) count(t *countTmpl) sample {
	s := sample{class: "count"}
	var r server.CountResponse
	if !c.post(&s, c.front+"/v1/count", server.CountRequest{Dataset: t.Dataset, Motif: t.Motif, DeltaSeconds: t.Delta}, &r) {
		return s
	}
	switch {
	case !exact(&r):
		c.note("count %s %s δ=%d not exact: %+v", t.Dataset, t.Motif, t.Delta, r)
	case int64(r.Count) != t.want || r.ExactPartial != t.want:
		c.bad("count %s %s δ=%d = %v, oracle %d", t.Dataset, t.Motif, t.Delta, r.Count, t.want)
	default:
		s.ok = true
	}
	return s
}

func (c *client) batch(t *batchTmpl) sample {
	s := sample{class: "batch"}
	var r server.CountResponse
	if !c.post(&s, c.front+"/v1/count", server.CountRequest{Dataset: t.Dataset, Motifs: t.Motifs, DeltaSeconds: t.Delta}, &r) {
		return s
	}
	if !exact(&r) {
		c.note("batch %s not exact: %+v", t.Dataset, r)
		return s
	}
	if len(r.PerMotif) != len(t.want) {
		c.bad("batch %s answered %d motifs, want %d", t.Dataset, len(r.PerMotif), len(t.want))
		return s
	}
	for i, e := range r.PerMotif {
		if e.Motif != t.Motifs[i] || e.Count != t.want[i] || e.Truncated {
			c.bad("batch %s entry %d = %+v, oracle %s %d", t.Dataset, i, e, t.Motifs[i], t.want[i])
			return s
		}
	}
	s.ok = true
	return s
}

func (c *client) enumPage(s *sample, t *enumTmpl, token string) (*server.EnumerateResponse, bool) {
	var r server.EnumerateResponse
	req := server.EnumerateRequest{Dataset: t.Dataset, Motif: t.Motif, DeltaSeconds: t.Delta, Limit: enumLimit, PageToken: token}
	if !c.post(s, c.front+"/v1/enumerate", req, &r) {
		return nil, false
	}
	if r.Truncated || r.Partial != nil {
		c.note("enumerate %s %s page marked: truncated=%v partial=%v", t.Dataset, t.Motif, r.Truncated, r.Partial)
		return nil, false
	}
	return &r, true
}

func (c *client) enum(t *enumTmpl) sample {
	s := sample{class: "enum"}
	r, ok := c.enumPage(&s, t, t.token)
	if !ok {
		return s
	}
	if !reflect.DeepEqual(r.Matches, t.want) || r.NextPageToken != t.next {
		c.bad("enumerate %s %s page %d differs from the walked page", t.Dataset, t.Motif, t.Page)
		return s
	}
	s.ok = true
	return s
}

// discover walks every enumeration's pages once, checks their
// concatenation against the library's chronological enumeration, and
// keeps each page's token and matches as its expected answer.
func (c *client) discover() error {
	byKey := map[string][]*enumTmpl{}
	var keys []string
	for _, t := range c.p.enums {
		k := fmt.Sprintf("%s/%s/%d", t.Dataset, t.Motif, t.Delta)
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], t)
	}
	for _, k := range keys {
		ts := byKey[k]
		first := ts[0]
		oracle, err := enumOracle(c.p.graphs[first.Dataset], first.Motif, first.Delta, enumPages*enumLimit)
		if err != nil {
			return err
		}
		var got [][]int32
		token := ""
		for page := 0; page < enumPages; page++ {
			var s sample
			r, ok := c.enumPage(&s, first, token)
			if !ok {
				return fmt.Errorf("enumerate %s page %d failed: %v", k, page, c.problems)
			}
			for _, t := range ts {
				if t.Page == page {
					t.token, t.want, t.next = token, r.Matches, r.NextPageToken
				}
			}
			got = append(got, r.Matches...)
			if r.NextPageToken == "" {
				break
			}
			token = r.NextPageToken
		}
		if len(got) != len(oracle) || !reflect.DeepEqual(got, oracle) {
			c.bad("enumerate %s: %d walked matches differ from the library's first %d", k, len(got), len(oracle))
		}
	}
	return nil
}

// ingest sends the stream's next batch and, after the ack, reads a live
// count.
func (c *client) ingest() []sample {
	c.writer.Lock()
	defer c.writer.Unlock()
	s := sample{class: "ingest"}
	if c.cursor >= len(c.p.stream) {
		c.note("live stream exhausted after %d batches", c.cursor)
		return []sample{s}
	}
	so := c.p.stream[c.cursor]
	c.cursor++
	req := server.IngestRequest{ClientID: "mintbench", ClientSeq: so.seq, Edges: wireEdges(c.p.batches[so.batch])}
	var r server.IngestResponse
	if !c.post(&s, c.live+"/v1/edges", req, &r) {
		c.lost[c.cursor] = true
		return []sample{s}
	}
	switch {
	case r.Dup != so.resend:
		c.bad("ingest seq %d: dup=%v, want %v", so.seq, r.Dup, so.resend)
	case r.Stale:
		c.note("ingest seq %d: standing counts stale", so.seq)
	default:
		s.ok = true
		s.edges = r.Accepted
	}
	c.acks = append(c.acks, ackRec{pos: c.cursor, edges: r.Edges})
	c.acked++
	return []sample{s, c.liveRead(liveMotifs[c.acked%len(liveMotifs)])}
}

func (c *client) liveRead(motif string) sample {
	s := sample{class: "live"}
	var r server.CountResponse
	if !c.post(&s, c.live+"/v1/count", server.CountRequest{Dataset: liveDataset, Motif: motif, DeltaSeconds: 3600}, &r) {
		return s
	}
	if !exact(&r) {
		c.note("live count %s not exact: %+v", motif, r)
		return s
	}
	c.reads = append(c.reads, readRec{pos: c.cursor, motif: motif, got: int64(r.Count)})
	s.ok = true
	return s
}

func wireEdges(es []mint.Edge) []server.IngestEdge {
	out := make([]server.IngestEdge, len(es))
	for i, e := range es {
		out[i] = server.IngestEdge{Src: int64(e.Src), Dst: int64(e.Dst), Time: int64(e.Time)}
	}
	return out
}

// prefill loads the window during set-up and registers the standing
// queries after it, so the first streamed batch already folds into
// them.
func (c *client) prefill() error {
	for i, b := range c.p.prefill {
		var s sample
		var r server.IngestResponse
		if !c.post(&s, c.live+"/v1/edges", server.IngestRequest{ClientID: "mintbench", ClientSeq: uint64(i + 1), Edges: wireEdges(b)}, &r) {
			return fmt.Errorf("prefill batch %d failed: %v", i, c.problems)
		}
	}
	for _, m := range liveMotifs {
		var s sample
		var r server.StandingResponse
		if !c.post(&s, c.live+"/v1/standing", server.StandingRegisterRequest{Name: "s-" + m, Motif: m, DeltaSeconds: 3600}, &r) {
			return fmt.Errorf("registering standing %s failed: %v", m, c.problems)
		}
	}
	return nil
}

// warm sends every static template once, checked but untimed, so the
// measured phases start with warm registries and engine pools.
func (c *client) warm() {
	for _, t := range c.p.counts {
		c.count(t)
	}
	for _, t := range c.p.batch {
		c.batch(t)
	}
}

// finalCheck compares the standing board and a live count of every
// standing motif with a cold mine of the live edges, and returns how
// many checks it made.
func (c *client) finalCheck(model *liveModel) int {
	g, err := mint.NewGraph(append([]mint.Edge(nil), model.edges...))
	if err != nil {
		c.bad("live edges do not form a graph: %v", err)
		return 1
	}
	var board server.StandingListResponse
	if err := c.get(c.live+"/v1/standing", &board); err != nil {
		c.bad("standing board: %v", err)
		return 1
	}
	byName := map[string]mint.StandingCount{}
	for _, sc := range board.Standing {
		byName[sc.Name] = sc
	}
	checks := 1
	for _, m := range liveMotifs {
		mo, _ := mint.MotifByName(m, 3600)
		want := mint.CountParallel(g, mo, runtime.GOMAXPROCS(0))
		sc, ok := byName["s-"+m]
		if !ok || sc.Stale || sc.Count != want {
			c.bad("standing %s = %+v, cold mine %d", m, sc, want)
		}
		s := c.liveRead(m)
		checks += 2
		if !s.ok {
			c.bad("final live count %s failed", m)
			continue
		}
		if got := c.reads[len(c.reads)-1].got; got != want {
			c.bad("final live count %s = %d, cold mine %d", m, got, want)
		}
		c.reads = c.reads[:len(c.reads)-1]
	}
	return checks
}

// verifyStream replays the stream the server acknowledged and checks
// every ack's live edge count and every live read against a cold mine
// of the live edges at that point. It returns the final model.
func (c *client) verifyStream() *liveModel {
	model := &liveModel{window: c.p.window}
	for _, b := range c.p.prefill {
		model.apply(b)
	}
	workers := runtime.GOMAXPROCS(0)
	type job struct {
		rec   readRec
		edges []mint.Edge
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				g, err := mint.NewGraph(j.edges)
				if err != nil {
					c.bad("live edges at %d do not form a graph: %v", j.rec.pos, err)
					continue
				}
				mo, _ := mint.MotifByName(j.rec.motif, 3600)
				if want := mint.Count(g, mo); want != j.rec.got {
					c.bad("live count %s after %d batches = %d, cold mine %d", j.rec.motif, j.rec.pos, j.rec.got, want)
				}
			}
		}()
	}
	ai, ri := 0, 0
	for pos := 1; pos <= c.cursor; pos++ {
		if so := c.p.stream[pos-1]; !so.resend && !c.lost[pos] {
			model.apply(c.p.batches[so.batch])
		}
		for ; ai < len(c.acks) && c.acks[ai].pos == pos; ai++ {
			if c.acks[ai].edges != len(model.edges) {
				c.bad("ack after %d batches reports %d live edges, model %d", pos, c.acks[ai].edges, len(model.edges))
			}
		}
		for ; ri < len(c.reads) && c.reads[ri].pos == pos; ri++ {
			jobs <- job{rec: c.reads[ri], edges: append([]mint.Edge(nil), model.edges...)}
		}
	}
	close(jobs)
	wg.Wait()
	return model
}
