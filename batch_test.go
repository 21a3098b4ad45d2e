package repro_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro"
)

// normalizeShared strips, on top of answerOf, the one cost counter a
// shared group prefix legitimately changes for BA and FCA — IO, which
// charges the group's scan to every member (see Result.Stats and
// WithBatchSharing): everything left must be bit-identical.
func normalizeShared(res *repro.Result) *repro.Result {
	cp := answerOf(res)
	cp.Stats.IO = 0
	return cp
}

// clusteredFocals returns the m dataset indexes nearest (L2) to record
// `around` — a worst-case-friendly clustered focal group.
func clusteredFocals(t testing.TB, ds *repro.Dataset, around, m int) []int {
	t.Helper()
	center, err := ds.Point(around)
	if err != nil {
		t.Fatal(err)
	}
	type cand struct {
		idx int
		d   float64
	}
	cands := make([]cand, ds.Len())
	for i := range cands {
		p, err := ds.Point(i)
		if err != nil {
			t.Fatal(err)
		}
		var d float64
		for k, v := range p {
			dv := v - center[k]
			d += dv * dv
		}
		cands[i] = cand{idx: i, d: d}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].idx < cands[b].idx
	})
	out := make([]int, m)
	for i := range out {
		out[i] = cands[i].idx
	}
	return out
}

// TestBatchSharingBitIdentical is the engine-level acceptance check: with
// WithBatchSharing on, QueryBatch must return exactly the answers of the
// independent path — for tight clusters, scattered focals, duplicates,
// several algorithms and τ values. Run under -race in CI.
func TestBatchSharingBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		dist string
		dim  int
		alg  repro.Algorithm
		n    int
	}{
		{"IND", 3, repro.Auto, 800},
		{"IND", 3, repro.BA, 300}, // BA materialises every incomparable half-space: keep n small
		{"ANTI", 2, repro.Auto, 400},
		{"COR", 2, repro.FCA, 700},
	} {
		ds, err := repro.GenerateDataset(tc.dist, tc.n, tc.dim, 5)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := repro.NewEngine(ds, repro.WithParallelism(3))
		if err != nil {
			t.Fatal(err)
		}
		shared, err := repro.NewEngine(ds, repro.WithParallelism(3), repro.WithBatchSharing(true))
		if err != nil {
			t.Fatal(err)
		}
		if !shared.BatchSharing() || plain.BatchSharing() {
			t.Fatal("BatchSharing accessor does not reflect configuration")
		}
		cluster := clusteredFocals(t, ds, 17, 12)
		scattered := make([]int, 10)
		for i := range scattered {
			scattered[i] = (i * 73) % ds.Len()
		}
		mixed := append(append([]int{}, cluster[:8]...), scattered...)
		mixed = append(mixed, cluster[0]) // duplicate focal in one batch
		for _, focals := range [][]int{cluster, scattered, mixed} {
			for _, tau := range []int{0, 2} {
				opts := []repro.Option{repro.WithAlgorithm(tc.alg), repro.WithTau(tau), repro.WithOutrankIDs(true)}
				want, err := plain.QueryBatch(context.Background(), focals, opts...)
				if err != nil {
					t.Fatalf("%s/d%d/%v tau=%d independent: %v", tc.dist, tc.dim, tc.alg, tau, err)
				}
				got, err := shared.QueryBatch(context.Background(), focals, opts...)
				if err != nil {
					t.Fatalf("%s/d%d/%v tau=%d shared: %v", tc.dist, tc.dim, tc.alg, tau, err)
				}
				// AA has nothing to share and runs exactly as without the
				// option: its IO must match too (IncomparableAccessed is
				// compared on every row).
				norm := normalizeShared
				if tc.alg == repro.Auto {
					norm = answerOf
				}
				for i := range focals {
					if !reflect.DeepEqual(norm(want[i]), norm(got[i])) {
						t.Errorf("%s/d%d/%v tau=%d focal %d: shared batch result differs from independent",
							tc.dist, tc.dim, tc.alg, tau, focals[i])
					}
				}
			}
		}
	}
}

// TestQueryBatchSharedErrors: the QueryBatch contract survives the shared
// path — a bad focal fails the batch with the offending index wrapped, and
// a cancelled context aborts with ctx.Err.
func TestQueryBatchSharedErrors(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 300, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds, repro.WithBatchSharing(true))
	if err != nil {
		t.Fatal(err)
	}
	ba := repro.WithAlgorithm(repro.BA) // AA batches never take the shared path
	if _, err := eng.QueryBatch(context.Background(), []int{1, 2, 9999}, ba); !errors.Is(err, repro.ErrBadQuery) {
		t.Errorf("out-of-range focal: err = %v, want ErrBadQuery", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryBatch(ctx, []int{1, 2, 3}, ba); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch: err = %v, want context.Canceled", err)
	}
}

// TestBatchSharingCacheInterplay: the shared path consults and feeds the
// result cache like the independent path — a repeated batch is served
// from memory, in-batch duplicates share one computation, and cached
// results are bit-identical to computed ones.
func TestBatchSharingCacheInterplay(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 600, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// FCA: AA batches never take the shared path.
	eng, err := repro.NewEngine(ds, repro.WithBatchSharing(true), repro.WithCache(64),
		repro.WithQueryDefaults(repro.WithAlgorithm(repro.FCA)))
	if err != nil {
		t.Fatal(err)
	}
	focals := clusteredFocals(t, ds, 3, 8)
	focals = append(focals, focals[0]) // in-batch duplicate
	first, err := eng.QueryBatch(context.Background(), focals)
	if err != nil {
		t.Fatal(err)
	}
	if first[len(first)-1].Cached != true {
		t.Error("in-batch duplicate not marked Cached")
	}
	second, err := eng.QueryBatch(context.Background(), focals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range focals {
		if !second[i].Cached {
			t.Errorf("repeat batch member %d not served from cache", i)
		}
		if !reflect.DeepEqual(normalizeShared(first[i]), normalizeShared(second[i])) {
			t.Errorf("repeat batch member %d differs from first run", i)
		}
	}
	if stats := eng.Stats(); stats.CacheHits == 0 {
		t.Error("cache hits not counted by the shared path")
	}
}

// TestApplyInheritsBatchSharing: a mutation successor keeps serving with
// sharing enabled (the same inheritance Apply gives every other knob).
func TestApplyInheritsBatchSharing(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 200, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds, repro.WithBatchSharing(true))
	if err != nil {
		t.Fatal(err)
	}
	next, err := eng.Apply(context.Background(), []repro.Op{repro.InsertOp([]float64{0.9, 0.8, 0.7})})
	if err != nil {
		t.Fatal(err)
	}
	if !next.BatchSharing() {
		t.Error("Apply successor lost WithBatchSharing")
	}
}
