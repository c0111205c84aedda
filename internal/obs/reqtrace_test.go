package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundtrip(t *testing.T) {
	tc := NewTraceContext()
	if len(tc.TraceID) != 32 || len(tc.SpanID) != 16 {
		t.Fatalf("unexpected id lengths: trace %q span %q", tc.TraceID, tc.SpanID)
	}
	got, ok := ParseTraceparent(tc.Traceparent())
	if !ok || got != tc {
		t.Fatalf("roundtrip: ParseTraceparent(%q) = %+v, %v", tc.Traceparent(), got, ok)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"",
		"00-short-span-01",
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero ids
		"00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-1111111111111111-01", // non-hex
		"no-dashes",
	} {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

func TestTraceFromRequestPrecedence(t *testing.T) {
	// traceparent wins and its span id becomes the parent.
	in := NewTraceContext()
	r := httptest.NewRequest("POST", "/v1/count", nil)
	r.Header.Set("traceparent", in.Traceparent())
	r.Header.Set("X-Request-ID", "ignored-when-traceparent-present")
	tc, parent := TraceFromRequest(r)
	if tc.TraceID != in.TraceID {
		t.Fatalf("traceparent trace id not honored: got %q want %q", tc.TraceID, in.TraceID)
	}
	if parent != in.SpanID {
		t.Fatalf("parent = %q, want the incoming span id %q", parent, in.SpanID)
	}
	if tc.SpanID == in.SpanID {
		t.Fatal("server span id must be fresh, not the client's")
	}

	// A 32-hex X-Request-ID is used directly as the trace id.
	r = httptest.NewRequest("POST", "/v1/count", nil)
	r.Header.Set("X-Request-ID", "ABCDEF00112233445566778899aabbcc")
	tc, parent = TraceFromRequest(r)
	if tc.TraceID != "abcdef00112233445566778899aabbcc" || parent != "" {
		t.Fatalf("hex request id: got trace %q parent %q", tc.TraceID, parent)
	}

	// An arbitrary X-Request-ID hashes to a stable trace id.
	r = httptest.NewRequest("POST", "/v1/count", nil)
	r.Header.Set("X-Request-ID", "req-42")
	first, _ := TraceFromRequest(r)
	second, _ := TraceFromRequest(r)
	if first.TraceID != second.TraceID || len(first.TraceID) != 32 {
		t.Fatalf("request id hashing not stable: %q vs %q", first.TraceID, second.TraceID)
	}

	// No headers: a fresh mint.
	r = httptest.NewRequest("POST", "/v1/count", nil)
	tc, parent = TraceFromRequest(r)
	if len(tc.TraceID) != 32 || parent != "" {
		t.Fatalf("fresh mint: got trace %q parent %q", tc.TraceID, parent)
	}
}

// TestReqTraceMergedExplain exercises the coordinator's assembly path:
// local spans plus an imported shard fragment whose root names the
// coordinator's call span as parent must come out as one tree.
func TestReqTraceMergedExplain(t *testing.T) {
	tc := NewTraceContext()
	rt := NewReqTrace(tc, "gather.count", "")
	rt.Annotate("priority", "normal")

	call := rt.Begin("shard.call", rt.RootID())
	call.Set("shard", "http://s1")

	// The shard-side fragment, as a worker would return it: its root is
	// parented under the coordinator's call span.
	shardRoot := Span{
		Name: "http.count", TraceID: tc.TraceID, SpanID: NewSpanID(),
		ParentID: call.ID(), StartUnixNS: time.Now().UnixNano(), DurNS: 1000,
	}
	shardChild := Span{
		Name: "mine", TraceID: tc.TraceID, SpanID: NewSpanID(),
		ParentID: shardRoot.SpanID, StartUnixNS: shardRoot.StartUnixNS + 10, DurNS: 900,
	}
	foreign := Span{Name: "other", TraceID: strings.Repeat("f", 32), SpanID: NewSpanID()}
	rt.Import([]Span{shardRoot, shardChild, foreign}, "http://s1")
	call.End()
	rt.Finish()

	spans := rt.Spans()
	for _, sp := range spans {
		if sp.TraceID != tc.TraceID {
			t.Fatalf("foreign-trace span %q leaked into the merged set", sp.Name)
		}
	}
	if got := len(spans); got != 4 { // root + call + 2 imported
		t.Fatalf("merged span count = %d, want 4", got)
	}

	tree := BuildExplain(spans)
	if tree == nil || tree.Name != "gather.count" {
		t.Fatalf("explain root = %+v, want gather.count", tree)
	}
	if tree.Attrs["priority"] != "normal" {
		t.Fatalf("root attrs lost: %v", tree.Attrs)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "shard.call" {
		t.Fatalf("want shard.call under root, got %+v", tree.Children)
	}
	callNode := tree.Children[0]
	if len(callNode.Children) != 1 || callNode.Children[0].Name != "http.count" {
		t.Fatalf("shard root not linked under call span: %+v", callNode.Children)
	}
	if callNode.Children[0].Proc != "http://s1" {
		t.Fatalf("imported span proc = %q, want shard URL", callNode.Children[0].Proc)
	}
	if len(callNode.Children[0].Children) != 1 || callNode.Children[0].Children[0].Name != "mine" {
		t.Fatalf("shard child not nested: %+v", callNode.Children[0].Children)
	}
}

func TestTraceStoreMergeAndEvict(t *testing.T) {
	ts := NewTraceStore(8)
	id := strings.Repeat("a", 32)
	ts.Add(id, []Span{{Name: "root", TraceID: id, SpanID: "1111111111111111"}})
	ts.Add(id, []Span{{Name: "late-frag", TraceID: id, SpanID: "2222222222222222"}})
	if got := len(ts.Get(id)); got != 2 {
		t.Fatalf("late fragment not merged: %d spans", got)
	}
	for i := 0; i < 8; i++ {
		ts.Add(strings.Repeat("b", 31)+string(rune('0'+i)), []Span{{Name: "x", SpanID: "3333333333333333"}})
	}
	if got := ts.Get(id); got != nil && len(got) != 0 {
		t.Fatalf("oldest trace not evicted at capacity: %d spans remain", len(got))
	}
}

// TestSpanRecordConcurrent: closed child spans recorded from many
// goroutines all land on the request trace, under the open span, in
// start order.
func TestSpanRecordConcurrent(t *testing.T) {
	rt := NewReqTrace(NewTraceContext(), "http.count", "")
	sp := rt.Begin("mine", rt.RootID())
	base := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp.Record("mackey.worker", int32(w), base.Add(time.Duration(i*8+w)), time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	sp.End()
	spans := rt.Spans()
	if len(spans) != 802 {
		t.Fatalf("recorded %d spans, want root + mine + 800", len(spans))
	}
	for i, s := range spans[1:] {
		if i > 0 && s.StartUnixNS < spans[i].StartUnixNS {
			t.Fatalf("span %d starts before its predecessor", i+1)
		}
		if s.Name == "mackey.worker" && (s.ParentID != sp.ID() || s.TraceID != rt.TraceID() || s.DurNS != 1e6) {
			t.Fatalf("recorded span mangled: %+v", s)
		}
	}
}

// TestChromeTraceFormat checks that the dump is valid JSON in the Trace
// Event Format: complete ("X") events with microsecond timestamps
// rebased to the earliest span and the worker id as the thread id.
func TestChromeTraceFormat(t *testing.T) {
	now := time.Now().UnixNano()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []Span{
		{Name: "mackey.worker", Worker: 3, StartUnixNS: now + 2000, DurNS: 1500000},
		{Name: `na"me`, StartUnixNS: now}, // quoting survives
	}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("traceEvents = %+v, want a process meta and 2 spans", doc.TraceEvents)
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "mackey.worker" || ev.Ph != "X" || ev.Tid != 3 || ev.TS != 2 || ev.Dur != 1500 {
		t.Fatalf("event mangled: %+v", ev)
	}
	if doc.TraceEvents[2].Name != `na"me` || doc.TraceEvents[2].TS != 0 {
		t.Fatalf("quoted event mangled: %+v", doc.TraceEvents[2])
	}
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil || !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace: %v %q", err, buf.String())
	}
}

func TestWriteChromeTrace(t *testing.T) {
	ts := NewTraceStore(8)
	id := strings.Repeat("c", 32)
	now := time.Now().UnixNano()
	ts.Add(id, []Span{
		{Name: "gather.count", TraceID: id, SpanID: "aaaaaaaaaaaaaaaa", StartUnixNS: now, DurNS: 5000},
		{Name: "http.count", TraceID: id, SpanID: "bbbbbbbbbbbbbbbb", ParentID: "aaaaaaaaaaaaaaaa",
			Proc: "http://s1", StartUnixNS: now + 100, DurNS: 4000, Attrs: map[string]string{"engine": "exact"}},
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ts.Get(id)); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var metas, spans int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			spans++
			pids[ev.Pid] = true
			if ev.Args["span_id"] == "" {
				t.Fatalf("span event without span_id: %+v", ev)
			}
		}
	}
	if metas != 2 || spans != 2 {
		t.Fatalf("want 2 process metas + 2 span events, got %d + %d", metas, spans)
	}
	if len(pids) != 2 {
		t.Fatalf("local and shard spans should land in distinct pids, got %v", pids)
	}
}

func TestAccessLogger(t *testing.T) {
	var buf bytes.Buffer
	al := NewAccessLogger(&buf)
	al.Log(AccessRecord{TraceID: strings.Repeat("e", 32), Route: "count", Status: 200, Outcome: "ok", WallMS: 1.25})
	al.Log(AccessRecord{Route: "count", Status: 429, Outcome: "shed", Shed: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d: %q", len(lines), buf.String())
	}
	var rec AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	if rec.TraceID != strings.Repeat("e", 32) || rec.Outcome != "ok" {
		t.Fatalf("roundtrip mismatch: %+v", rec)
	}
	// nil logger is a no-op, not a panic.
	var nilLogger *AccessLogger
	nilLogger.Log(AccessRecord{})
	if NewAccessLogger(nil) != nil {
		t.Fatal("NewAccessLogger(nil) should return nil")
	}
}
