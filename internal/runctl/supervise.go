package runctl

import "time"

// Backoff returns the capped exponential retry delay for the given failure
// ordinal (0 = first retry): base<<attempt, clamped to cap. Non-positive
// base disables backoff (returns 0); attempt is clamped so large ordinals
// cannot overflow the shift. The chunk scheduler's supervision, the
// dataset registry, the scatter-gather coordinator and the replica
// follower share it.
func Backoff(attempt int, base, cap time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0
	}
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	if cap > 0 && (d > cap || d <= 0) {
		d = cap
	}
	return d
}
