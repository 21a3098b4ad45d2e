package repro_test

import "repro"

// answerOf returns a copy of res with the run-dependent fields zeroed —
// the cache flag and the wall-clock CPUTime. What is left — regions,
// ranks, witnesses and every cost counter (IO, Dominators,
// IncomparableAccessed, HalfspacesInserted, LPCalls, LeavesProcessed,
// LeavesPruned, Iterations) — must be bit-identical between any two
// executions of the same query on the same index layout, at any core
// count, so the batteries reflect.DeepEqual it.
func answerOf(res *repro.Result) *repro.Result {
	cp := *res
	cp.Cached = false
	cp.Stats.CPUTime = 0
	return &cp
}
