package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro"
)

// mirrorApply applies the batch semantics of Dataset.Apply to a plain
// point slice: survivors in original order, then inserts in op order. The
// result is the "equivalent point set" the acceptance criterion compares
// against.
func mirrorApply(points [][]float64, ops []repro.Op) [][]float64 {
	deleted := make(map[int]bool)
	var inserts [][]float64
	for _, op := range ops {
		switch op.Kind {
		case repro.OpDelete:
			deleted[op.Index] = true
		case repro.OpInsert:
			inserts = append(inserts, append([]float64(nil), op.Point...))
		}
	}
	out := make([][]float64, 0, len(points)-len(deleted)+len(inserts))
	for i, p := range points {
		if !deleted[i] {
			out = append(out, p)
		}
	}
	return append(out, inserts...)
}

// randomBatch draws a mixed batch against a dataset of n current records:
// some deletes (unique indexes), some fresh inserts, and occasionally a
// delete immediately re-inserted with identical coordinates (the
// "re-insert" case the mutation contract calls out).
func randomBatch(rng *rand.Rand, points [][]float64, dim int) []repro.Op {
	n := len(points)
	var ops []repro.Op
	nDel := 1 + rng.Intn(4)
	if nDel > n-2 {
		nDel = n - 2
	}
	perm := rng.Perm(n)
	for _, idx := range perm[:nDel] {
		ops = append(ops, repro.DeleteOp(idx))
		if rng.Intn(3) == 0 { // delete + re-insert the same point
			ops = append(ops, repro.InsertOp(append([]float64(nil), points[idx]...)))
		}
	}
	nIns := 1 + rng.Intn(4)
	for k := 0; k < nIns; k++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		ops = append(ops, repro.InsertOp(p))
	}
	return ops
}

// stripCost zeroes the fields the equivalence contract excludes: cost
// counters reflect physical index layout (an incrementally maintained
// R*-tree legitimately differs in shape from a bulk-loaded one), the
// answer itself must not.
func stripCost(res *repro.Result) *repro.Result {
	cp := *res
	cp.Stats = repro.Stats{}
	cp.Cached = false
	return &cp
}

func compareResults(t *testing.T, label string, got, want *repro.Result) {
	t.Helper()
	if !reflect.DeepEqual(stripCost(got), stripCost(want)) {
		t.Fatalf("%s: mutated engine answer differs from fresh-built engine\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestApplyEquivalence is the acceptance criterion: after randomized
// insert/delete/re-insert sequences, an Apply-produced dataset answers
// queries bit-identically — regions, ranks, witnesses, boxes, constraints
// and outrank IDs — to a dataset freshly built over the equivalent point
// set, across algorithms, distributions and τ.
func TestApplyEquivalence(t *testing.T) {
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		for _, dim := range []int{2, 3} {
			dist, dim := dist, dim
			t.Run(fmt.Sprintf("%s/d=%d", dist, dim), func(t *testing.T) {
				t.Parallel()
				base, err := repro.GenerateDataset(dist, 250, dim, 77)
				if err != nil {
					t.Fatal(err)
				}
				mirror := make([][]float64, base.Len())
				for i := range mirror {
					mirror[i] = mustPoint(t, base, i)
				}
				algs := []repro.Algorithm{repro.BA, repro.AA}
				if dim == 2 {
					algs = append(algs, repro.FCA)
				}
				rng := rand.New(rand.NewSource(int64(dim)*1000 + int64(len(dist))))
				cur := base
				for batch := 0; batch < 3; batch++ {
					ops := randomBatch(rng, mirror, dim)
					next, err := cur.Apply(ops)
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					mirror = mirrorApply(mirror, ops)
					cur = next
					if cur.Len() != len(mirror) {
						t.Fatalf("batch %d: %d records, mirror has %d", batch, cur.Len(), len(mirror))
					}
					fresh, err := repro.NewDataset(mirror)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := cur.Fingerprint(), fresh.Fingerprint(); got != want {
						t.Fatalf("batch %d: fingerprint %s, fresh-built %s", batch, got, want)
					}
					for _, alg := range algs {
						for _, tau := range []int{0, 2} {
							for _, focal := range []int{0, cur.Len() / 2, cur.Len() - 1} {
								opts := []repro.Option{
									repro.WithAlgorithm(alg), repro.WithTau(tau), repro.WithOutrankIDs(true),
								}
								got, err := query(cur, focal, opts...)
								if err != nil {
									t.Fatalf("batch %d %v tau=%d focal=%d (mutated): %v", batch, alg, tau, focal, err)
								}
								want, err := query(fresh, focal, opts...)
								if err != nil {
									t.Fatalf("batch %d %v tau=%d focal=%d (fresh): %v", batch, alg, tau, focal, err)
								}
								compareResults(t, fmt.Sprintf("batch %d %v tau=%d focal=%d", batch, alg, tau, focal), got, want)
								if err := repro.Validate(cur, focal, got); err != nil {
									t.Fatalf("batch %d %v tau=%d focal=%d: %v", batch, alg, tau, focal, err)
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestApplyDeleteAllThenInsert rebuilds the dataset content entirely
// within one batch.
func TestApplyDeleteAllThenInsert(t *testing.T) {
	ds := genDS(t, "IND", 40, 3)
	var ops []repro.Op
	for i := 0; i < ds.Len(); i++ {
		ops = append(ops, repro.DeleteOp(i))
	}
	rng := rand.New(rand.NewSource(5))
	var mirror [][]float64
	for k := 0; k < 60; k++ {
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ops = append(ops, repro.InsertOp(p))
		mirror = append(mirror, p)
	}
	next, err := ds.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := repro.NewDataset(mirror)
	if err != nil {
		t.Fatal(err)
	}
	if next.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("fingerprint %s != fresh %s", next.Fingerprint(), fresh.Fingerprint())
	}
	got, err := query(next, 7, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := query(fresh, 7, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "delete-all-then-insert", got, want)
}

// TestApplyValidation exercises every rejection path; the receiver must
// be untouched afterwards.
func TestApplyValidation(t *testing.T) {
	ds := genDS(t, "IND", 20, 3)
	fp := ds.Fingerprint()
	cases := []struct {
		name string
		ops  []repro.Op
	}{
		{"empty batch", nil},
		{"delete out of range", []repro.Op{repro.DeleteOp(20)}},
		{"delete negative", []repro.Op{repro.DeleteOp(-1)}},
		{"duplicate delete", []repro.Op{repro.DeleteOp(3), repro.DeleteOp(3)}},
		{"insert wrong dim", []repro.Op{repro.InsertOp([]float64{0.5, 0.5})}},
		{"insert NaN", []repro.Op{repro.InsertOp([]float64{0.5, math.NaN(), 0.5})}},
		{"insert +Inf", []repro.Op{repro.InsertOp([]float64{0.5, math.Inf(1), 0.5})}},
		{"unknown kind", []repro.Op{{Kind: 0}}},
		{"would empty", func() []repro.Op {
			var ops []repro.Op
			for i := 0; i < 20; i++ {
				ops = append(ops, repro.DeleteOp(i))
			}
			return ops
		}()},
	}
	for _, tc := range cases {
		if _, err := ds.Apply(tc.ops); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		} else if !errors.Is(err, repro.ErrBadQuery) {
			t.Fatalf("%s: error %v does not wrap ErrBadQuery", tc.name, err)
		}
	}
	if ds.Fingerprint() != fp {
		t.Fatal("failed Apply mutated the receiver")
	}
}

// TestApplyAcrossBatches re-deletes an index that an earlier batch
// already removed: within the next batch that index addresses a
// *different* (shifted) record, and a stale index beyond the shrunken
// range fails cleanly.
func TestApplyAcrossBatches(t *testing.T) {
	ds := genDS(t, "IND", 10, 2)
	a, err := ds.Apply([]repro.Op{repro.DeleteOp(9)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 9 {
		t.Fatalf("len %d, want 9", a.Len())
	}
	if _, err := a.Apply([]repro.Op{repro.DeleteOp(9)}); err == nil {
		t.Fatal("stale index accepted after shrink")
	}
	b, err := a.Apply([]repro.Op{repro.DeleteOp(0)})
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 of a was record 0 of ds; b's record 0 must be ds's record 1.
	want := mustPoint(t, ds, 1)
	got := mustPoint(t, b, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-delete record 0 = %v, want %v", got, want)
	}
}

// TestApplyLeavesReceiverServing pins the immutability contract: the old
// dataset and engines over it keep answering identically (same
// fingerprint, same results) after successors were derived from it.
func TestApplyLeavesReceiverServing(t *testing.T) {
	ds := genDS(t, "COR", 120, 3)
	before, err := query(ds, 11, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	fp := ds.Fingerprint()
	if _, err := ds.Apply([]repro.Op{repro.DeleteOp(11), repro.InsertOp([]float64{0.9, 0.9, 0.9})}); err != nil {
		t.Fatal(err)
	}
	if ds.Fingerprint() != fp {
		t.Fatal("Apply changed the receiver's fingerprint")
	}
	after, err := query(ds, 11, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "receiver after Apply", after, before)
}

// TestEngineApplyInheritsConfig: the successor engine carries the
// parallelism and cache capacity of its parent, with a cold cache.
func TestEngineApplyInheritsConfig(t *testing.T) {
	ds := genDS(t, "IND", 80, 3)
	eng, err := repro.NewEngine(ds,
		repro.WithParallelism(3),
		repro.WithCache(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.Query(ctx, 5); err != nil {
		t.Fatal(err)
	}
	next, err := eng.Apply(ctx, []repro.Op{repro.InsertOp([]float64{0.5, 0.5, 0.5})})
	if err != nil {
		t.Fatal(err)
	}
	if next.Parallelism() != 3 {
		t.Fatalf("parallelism %d, want 3", next.Parallelism())
	}
	st := next.Stats()
	if !st.CacheEnabled || st.CacheCapacity != 64 {
		t.Fatalf("successor cache enabled=%v capacity=%d, want true/64", st.CacheEnabled, st.CacheCapacity)
	}
	if st.CacheSize != 0 || st.Queries != 0 {
		t.Fatalf("successor not cold: size=%d queries=%d", st.CacheSize, st.Queries)
	}
	if next.Dataset().Fingerprint() == ds.Fingerprint() {
		t.Fatal("fingerprint unchanged after insert")
	}
}

// TestApplyConcurrentQueries runs queries against an engine while
// successors are derived from it repeatedly — two siblings at once, which
// share the parent's pages and nodes — and queried too: the -race
// companion to the registry swap test in the server package.
func TestApplyConcurrentQueries(t *testing.T) {
	ds := genDS(t, "IND", 120, 3)
	eng, err := repro.NewEngine(ds, repro.WithCache(32))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var cur = eng
	var curMu sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				curMu.RLock()
				e := cur
				curMu.RUnlock()
				focal := (w*13 + i) % e.Dataset().Len()
				if _, err := e.Query(ctx, focal); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 6; round++ {
		curMu.RLock()
		e := cur
		curMu.RUnlock()
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		sibling := []repro.Op{repro.DeleteOp(rng.Intn(e.Dataset().Len())), repro.InsertOp([]float64{p[1], p[2], p[0]})}
		sibDone := make(chan error, 1)
		go func() {
			s, err := e.Apply(ctx, sibling)
			if err == nil {
				_, err = s.Query(ctx, 0)
			}
			sibDone <- err
		}()
		next, err := e.Apply(ctx, []repro.Op{repro.DeleteOp(rng.Intn(e.Dataset().Len())), repro.InsertOp(p)})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-sibDone; err != nil {
			t.Fatal(err)
		}
		curMu.Lock()
		cur = next
		curMu.Unlock()
	}
	close(stop)
	wg.Wait()
}

// TestApplyAllocations guards Apply's cost against a whole-index copy or
// decode coming back. A 32-insert, 32-delete batch — the mutate_cycle
// workload's shape, on IND d = 2 — runs at n = 20 000 and n = 100 000.
// The allocation counts may differ by what the larger tree's batch touches
// (more distinct nodes cloned and rewritten: about 95 allocations more),
// not by anything per page (600 more pages) or per record. The bytes the
// extra 80 000 records cost must stay within applyBytesPerRecord each:
// measured 3.6, nearly all of it the page and node tables, since the batch
// copies only the chunks of the record table it touches; with nodes of
// pointerful entries, cloned entry by entry and decoded back by Finalize,
// it was 5.0, and copying the record table whole cost 32 more and copying
// every page and decoding it about 208. At n = 100 000 a batch must also
// stay within applyBatchBytes: measured 785 800 B, with the store keeping
// the page Finalize encodes; 1 029 200 B while the store copied it, and
// 1 688 500 B with pointerful nodes. The ceiling is a fifth above the
// measurement, so that copy coming back, or Finalize decoding each page
// back into its node, must cross it. A batch at n = 100 000 must also stay
// within applyBatchAllocs allocations: measured 380, with one allocation a
// finalized node and every insert and delete descending along a path held
// on its caller's stack; the page copy back measures 455, a path slice
// allocated for each insert and delete 573, and the ceiling is
// 65 above the measurement, so each must cross it. Each Apply is followed
// by Fingerprint, so the hash Apply starts on a goroutine of its own is
// done, and counted, inside the window.
func TestApplyAllocations(t *testing.T) {
	const (
		allocSlack          = 200
		applyBytesPerRecord = 4.5
		applyBatchBytes     = 943_000
		applyBatchAllocs    = 445
	)
	var allocs, bytes [2]float64
	sizes := [2]int{20000, 100000}
	for k, n := range sizes {
		ds, err := repro.GenerateDataset("IND", n, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		ops := mutateCycleBatch(rand.New(rand.NewSource(7)), n, 2)
		apply := func() {
			next, err := ds.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
			next.Fingerprint()
		}
		allocs[k] = testing.AllocsPerRun(5, apply)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 5
		for i := 0; i < runs; i++ {
			apply()
		}
		runtime.ReadMemStats(&after)
		bytes[k] = float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("n=%d: %.0f allocations, %.0f bytes", n, allocs[k], bytes[k])
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates: the budgets are enforced without -race")
	}
	if allocs[1] > allocs[0]+allocSlack {
		t.Errorf("Apply makes %.0f allocations at n=%d and %.0f at n=%d: a per-page or per-record allocation is back",
			allocs[1], sizes[1], allocs[0], sizes[0])
	}
	if perRecord := (bytes[1] - bytes[0]) / float64(sizes[1]-sizes[0]); perRecord > applyBytesPerRecord {
		t.Errorf("Apply allocates %.1f bytes for each record beyond n=%d, budget %g", perRecord, sizes[0], applyBytesPerRecord)
	}
	if bytes[1] > applyBatchBytes {
		t.Errorf("Apply allocates %.0f bytes a batch at n=%d, budget %d", bytes[1], sizes[1], applyBatchBytes)
	}
	if allocs[1] > applyBatchAllocs {
		t.Errorf("Apply makes %.0f allocations a batch at n=%d, budget %d", allocs[1], sizes[1], applyBatchAllocs)
	}
}
