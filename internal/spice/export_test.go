package spice

import "sync/atomic"

// CountFullSteps runs f and returns the full column-steps the stage
// kernel took meanwhile. Nothing else may integrate while it runs.
func CountFullSteps(f func()) int64 {
	var n atomic.Int64
	stepCounter = &n
	defer func() { stepCounter = nil }()
	f()
	return n.Load()
}
