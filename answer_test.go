package repro_test

import "repro"

// answerOf returns a copy of res with the run-dependent fields zeroed —
// the cache flag, the wall-clock CPUTime, and the work counters that
// depend on how the parallel cell loop was scheduled (LPCalls,
// LeavesProcessed, LeavesPruned). What is left — regions, ranks,
// witnesses and the paper's deterministic cost counters (IO, Dominators,
// IncomparableAccessed, HalfspacesInserted, Iterations) — must be
// bit-identical between any two executions of the same query on the same
// index layout, at any core count, so the batteries reflect.DeepEqual it.
func answerOf(res *repro.Result) *repro.Result {
	cp := *res
	cp.Cached = false
	cp.Stats.CPUTime = 0
	cp.Stats.LPCalls = 0
	cp.Stats.LeavesProcessed = 0
	cp.Stats.LeavesPruned = 0
	return &cp
}
