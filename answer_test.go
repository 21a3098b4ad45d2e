package repro_test

import (
	"context"
	"testing"

	"repro"
)

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

// query runs MaxRank for record focal of ds on a fresh engine.
func query(ds *repro.Dataset, focal int, opts ...repro.Option) (*repro.Result, error) {
	eng, err := repro.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	return eng.Query(context.Background(), focal, opts...)
}

// queryPoint runs MaxRank for a what-if record on a fresh engine over ds.
func queryPoint(ds *repro.Dataset, record []float64, opts ...repro.Option) (*repro.Result, error) {
	eng, err := repro.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	return eng.QueryPoint(context.Background(), record, opts...)
}

// insertBuilt indexes ds's records again by R* insertion: a dataset of
// the first record takes the rest through Apply, which appends inserts in
// op order, so every record keeps its index.
func insertBuilt(t testing.TB, ds *repro.Dataset) *repro.Dataset {
	t.Helper()
	first, err := repro.NewDataset([][]float64{mustPoint(t, ds, 0)})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]repro.Op, 0, ds.Len()-1)
	for i := 1; i < ds.Len(); i++ {
		ops = append(ops, repro.InsertOp(mustPoint(t, ds, i)))
	}
	out, err := first.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
