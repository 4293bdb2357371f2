package spice

import (
	"sync"
	"sync/atomic"

	"contango/internal/analysis"
)

// walkStages calls visit once for every stage of net, each after its
// parent's call has returned. With at most one worker it visits the
// stages in index order, which extraction makes parents-first. Otherwise
// it starts that many workers on a ready queue: the source stages start
// it, and a worker queues a stage's children as soon as it has visited
// the stage, so no stage waits for unrelated stages of its depth. The
// caller bounds the expensive part of a visit, stage integration, with
// the evaluation's semaphore, which every corner group's walk shares, so
// the workers of all groups together run at most its capacity of
// integrations at once, the same fixed-budget discipline as the
// synthesis service's job pool.
func walkStages(net *analysis.Net, workers int, visit func(int)) {
	n := len(net.Stages)
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			visit(i)
		}
		return
	}
	ready := make(chan int, n) // every stage is queued exactly once
	for i, s := range net.Stages {
		if s.Parent < 0 {
			ready <- i
		}
	}
	var left atomic.Int64 // stages not yet visited
	left.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range ready {
				visit(i)
				for _, c := range net.Stages[i].Children {
					ready <- c
				}
				if left.Add(-1) == 0 {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
}
