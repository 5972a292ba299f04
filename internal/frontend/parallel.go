package frontend

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(i) for i in [0, n) across GOMAXPROCS workers and
// returns the first error any call produced (later iterations still run;
// per-item work is independent). With one usable CPU or tiny n it degrades
// to a plain loop, so single-core deployments pay no goroutine overhead.
//
// fn must be safe to call concurrently for distinct i; writes must go to
// per-index slots (a slice cell), never to shared state.
func parallelFor(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next    atomic.Int64
		errOnce sync.Once
		wg      sync.WaitGroup
		retErr  error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { retErr = err })
				}
			}
		}()
	}
	wg.Wait()
	return retErr
}

// perShard runs fn(s) for every shard in [0, n) on its own goroutine (slow
// shards overlap) and returns the per-shard errors. fn writes only to
// per-shard slots.
func perShard(n int, fn func(s int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	return errs
}
