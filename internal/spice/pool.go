package spice

import "sync"

// runLimited executes fn(0..n-1) concurrently, with at most the semaphore's
// capacity running at once. It is the same fixed-budget worker discipline as
// the synthesis service's job pool, scaled down to stage granularity: the
// semaphore is shared across every scheduling site of one evaluation (all
// corner tasks, every dependency level), so the total number
// of in-flight stage simulations never exceeds the configured parallelism
// no matter how the work is nested.
func runLimited(sem chan struct{}, n int, fn func(int)) {
	if n == 0 {
		return
	}
	if cap(sem) <= 1 {
		// Serial budget: the evaluator also runs its corner tasks serially
		// in this configuration, so no other goroutine contends for the
		// slot.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if n == 1 {
		// Run inline, but still hold a slot: concurrent corner tasks each
		// hit this path on sparse dependency levels, and the budget bounds
		// the total across all of them.
		sem <- struct{}{}
		defer func() { <-sem }()
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}
