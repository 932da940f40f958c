package sharding

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRetryDelayHonoursRetryAfter: a server's retry-after hint floors
// the retry schedule — the client never comes back sooner than the
// overloaded server asked — while larger jittered backoffs still win,
// and errors without a hint fall back to plain backoff.
func TestRetryDelayHonoursRetryAfter(t *testing.T) {
	shed := &ShardError{Shard: 3, Transient: true, RetryAfter: 80 * time.Millisecond,
		Err: errors.New("overloaded")}
	if d := retryDelay(3, 0, shed); d != 80*time.Millisecond {
		t.Fatalf("retry 0 with 80ms hint: delay %v, want exactly the hint", d)
	}

	// Deep into the schedule the capped exponential exceeds a tiny
	// hint and keeps de-synchronising retries.
	tiny := &ShardError{Shard: 3, Transient: true, RetryAfter: time.Nanosecond,
		Err: errors.New("overloaded")}
	if d, want := retryDelay(3, 9, tiny), backoffDelay(3, 9); d != want {
		t.Fatalf("tiny hint: delay %v, want plain backoff %v", d, want)
	}

	// A wrapped ShardError still surfaces its hint.
	wrapped := fmt.Errorf("attempt failed: %w", shed)
	if d := retryDelay(3, 0, wrapped); d != 80*time.Millisecond {
		t.Fatalf("wrapped hint: delay %v, want 80ms", d)
	}

	// No hint → identical to the PR 3 schedule.
	plain := errors.New("io timeout")
	for retry := 0; retry < 6; retry++ {
		if d, want := retryDelay(5, retry, plain), backoffDelay(5, retry); d != want {
			t.Fatalf("retry %d without hint: %v, want %v", retry, d, want)
		}
	}
}
