package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
								got, err := repro.Compute(cur, focal, opts...)
								if err != nil {
									t.Fatalf("batch %d %v tau=%d focal=%d (mutated): %v", batch, alg, tau, focal, err)
								}
								want, err := repro.Compute(fresh, focal, opts...)
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
	got, err := repro.Compute(next, 7, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compute(fresh, 7, repro.WithOutrankIDs(true))
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
	before, err := repro.Compute(ds, 11, repro.WithOutrankIDs(true))
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
	after, err := repro.Compute(ds, 11, repro.WithOutrankIDs(true))
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "receiver after Apply", after, before)
}

// TestEngineApplyInheritsConfig: the successor engine carries the
// parallelism, query defaults and cache capacity of its parent, with a cold
// cache.
func TestEngineApplyInheritsConfig(t *testing.T) {
	ds := genDS(t, "IND", 80, 3)
	eng, err := repro.NewEngine(ds,
		repro.WithParallelism(3),
		repro.WithCache(64),
		repro.WithQueryDefaults(repro.WithTau(1)),
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
	// The default τ=1 must still apply on the successor.
	res, err := next.Query(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range res.Regions {
		if reg.Rank > res.KStar+1 {
			t.Fatalf("region rank %d beyond k*+1=%d: query defaults not inherited", reg.Rank, res.KStar+1)
		}
	}
	if next.Dataset().Fingerprint() == ds.Fingerprint() {
		t.Fatal("fingerprint unchanged after insert")
	}
}

// TestApplyConcurrentQueries runs queries against an engine while
// successors are derived from it repeatedly and queried too — the -race
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
		next, err := e.Apply(ctx, []repro.Op{repro.DeleteOp(rng.Intn(e.Dataset().Len())), repro.InsertOp(p)})
		if err != nil {
			t.Fatal(err)
		}
		curMu.Lock()
		cur = next
		curMu.Unlock()
	}
	close(stop)
	wg.Wait()
}
