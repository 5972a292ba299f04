package shard

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestLoopStartStop pins the background loop behind Prober and Repairer:
// rounds run on the interval once started, a second start is a no-op, stop
// returns only after the goroutine has exited (no round runs after it), a
// stop while stopped is harmless, and start after stop runs again.
func TestLoopStartStop(t *testing.T) {
	var l loop
	var rounds atomic.Int64
	round := func() { rounds.Add(1) }
	waitRounds := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rounds.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d rounds after 5s, want %d", rounds.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	l.stop() // stopped loop: no-op
	l.start(time.Millisecond, round)
	l.start(time.Millisecond, func() { t.Error("second start replaced the running loop") })
	waitRounds(3)
	l.stop()
	after := rounds.Load()
	time.Sleep(10 * time.Millisecond)
	if got := rounds.Load(); got != after {
		t.Fatalf("%d rounds ran after stop returned", got-after)
	}
	l.stop()

	l.start(time.Millisecond, round)
	waitRounds(after + 2)
	l.stop()
}
