package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one answered request as the client saw it.
type sample struct {
	class string // count, batch, enum, ingest or live
	// due is when an open-loop schedule wanted the request sent; the
	// zero time means the request was not scheduled (closed loop, or a
	// read issued right after a write's ack), so it is timed from sent.
	due  time.Time
	sent time.Time
	done time.Time
	ok   bool // answered 200 with an exact, unmarked answer
	// edges is the number of edges an ingest ack accepted.
	edges int
	bytes int
	trace string // the server's X-Trace-Id
}

// latency is the client-visible latency: from the due time when the
// request was scheduled, so time spent waiting behind a stalled request
// counts, else from the send.
func (s sample) latency() time.Duration {
	if !s.due.IsZero() {
		return s.done.Sub(s.due)
	}
	return s.done.Sub(s.sent)
}

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration {
	if s.due.IsZero() {
		return 0
	}
	return s.sent.Sub(s.due)
}

// execFunc runs operation i of the workload's sequence on one
// connection and returns what it observed; the first sample is the
// operation itself, any further ones are follow-up reads it issued.
type execFunc func(i int) []sample

// openLoop offers rate operations per second for dur over conns
// connections. Operation i is due at start + i/rate whatever happened
// before it: when every connection is still busy the operation waits,
// and that wait shows both in its latency and in the generator's
// lateness.
func openLoop(conns int, rate float64, dur time.Duration, exec execFunc) []sample {
	n := int(rate * dur.Seconds())
	start := time.Now().Add(5 * time.Millisecond)
	period := float64(time.Second) / rate
	var next atomic.Int64
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * period))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ss := exec(i)
				ss[0].due = due
				out[c] = append(out[c], ss...)
			}
		}(c)
	}
	wg.Wait()
	return flatten(out)
}

// closedLoop runs conns clients back to back for dur, each taking the
// next operation of the shared sequence (starting at first) as soon as
// its previous one is answered.
func closedLoop(conns int, first int, dur time.Duration, exec execFunc) []sample {
	deadline := time.Now().Add(dur)
	next := atomic.Int64{}
	next.Store(int64(first))
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				out[c] = append(out[c], exec(int(next.Add(1)-1))...)
			}
		}(c)
	}
	wg.Wait()
	return flatten(out)
}

func flatten(parts [][]sample) []sample {
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}
