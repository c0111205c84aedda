package task

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"mint/internal/runctl"
	"mint/internal/temporal"
	"mint/internal/testutil"
)

func queueTestInput() (*temporal.Graph, *temporal.Motif) {
	rng := rand.New(rand.NewSource(23))
	g := testutil.RandomGraph(rng, 24, 4000, 500)
	return g, temporal.M1(400)
}

func TestRunCtlNilControllerMatchesRun(t *testing.T) {
	g, m := queueTestInput()
	want := Run(g, m, 4)
	res, err := RunCtl(g, m, 4, nil)
	if err != nil {
		t.Fatalf("RunCtl: %v", err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("RunCtl nil ctl: %d (truncated=%v), want %d", res.Matches, res.Truncated, want)
	}
	if res.Tasks == 0 {
		t.Fatal("RunCtl reported zero processed tasks")
	}
}

func TestRunQueueCtlUnbounded(t *testing.T) {
	g, m := queueTestInput()
	want := Run(g, m, 4)
	res, err := RunQueueCtl(g, m, 4, 16, runctl.New(context.Background(), runctl.Budget{}))
	if err != nil {
		t.Fatalf("RunQueueCtl: %v", err)
	}
	if res.Truncated || res.Matches != want {
		t.Fatalf("RunQueueCtl: %d (truncated=%v), want %d", res.Matches, res.Truncated, want)
	}
}

// TestRunQueueCtlCancelDrains: cancellation mid-run must drain the bounded
// queue cleanly (the call returns) and report an exact partial count.
func TestRunQueueCtlCancelDrains(t *testing.T) {
	g, m := queueTestInput()
	full := Run(g, m, 4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	done := make(chan QueueResult, 1)
	go func() {
		res, err := RunQueueCtl(g, m, 4, 16, runctl.New(ctx, runctl.Budget{}))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Matches > full {
			t.Fatalf("partial count %d exceeds full count %d", res.Matches, full)
		}
		if res.Truncated && res.StopReason != runctl.Canceled {
			t.Fatalf("StopReason = %v, want Canceled", res.StopReason)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queue did not drain within 10s of cancel")
	}
}

// TestRunQueueCtlMatchBudget: a match budget truncates the queue run; the
// parallel count may overshoot slightly (workers detect the limit at their
// next match) but must stay within workers-1 of the cap and below the full
// count.
func TestRunQueueCtlMatchBudget(t *testing.T) {
	g, m := queueTestInput()
	full := Run(g, m, 4)
	if full < 50 {
		t.Fatalf("test graph too sparse: %d matches", full)
	}
	const cap = 25
	res, err := RunQueueCtl(g, m, 4, 16, runctl.New(context.Background(), runctl.Budget{MaxMatches: cap}))
	if err != nil {
		t.Fatalf("RunQueueCtl: %v", err)
	}
	if !res.Truncated || res.StopReason != runctl.MatchBudget {
		t.Fatalf("truncated=%v reason=%v, want MatchBudget", res.Truncated, res.StopReason)
	}
	if res.Matches < cap || res.Matches >= full {
		t.Fatalf("matches = %d, want in [%d, %d)", res.Matches, cap, full)
	}
}

func TestRunCtlExpiredDeadline(t *testing.T) {
	g, m := queueTestInput()
	res, err := RunCtl(g, m, 4, runctl.New(context.Background(),
		runctl.Budget{Deadline: time.Now().Add(-time.Second)}))
	if err != nil {
		t.Fatalf("RunCtl: %v", err)
	}
	if !res.Truncated || res.StopReason != runctl.DeadlineExceeded {
		t.Fatalf("truncated=%v reason=%v, want DeadlineExceeded", res.Truncated, res.StopReason)
	}
}

// TestRunQueueSeedingRace runs the queue runtime on many tiny graphs,
// where workers can retire every seeded context while the seeder is still
// claiming the last root. The queue must only close once seeding is done:
// an early close made the seeder send on a closed channel and panic.
func TestRunQueueSeedingRace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		g := testutil.RandomGraph(rng, 4, 1+rng.Intn(6), 50)
		m := temporal.M1(20)
		res, err := RunQueueCtl(g, m, 2, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := Run(g, m, 1); res.Matches != want {
			t.Fatalf("graph %d: queue counted %d, synchronous runtime %d", i, res.Matches, want)
		}
	}
}
