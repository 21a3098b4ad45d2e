package repro_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
)

// cacheDataset builds a small deterministic dataset for cache tests.
func cacheDataset(t testing.TB, opts ...repro.DatasetOption) *repro.Dataset {
	t.Helper()
	ds, err := repro.GenerateDataset("IND", 500, 3, 42, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetFingerprint(t *testing.T) {
	a := cacheDataset(t)
	b := cacheDataset(t)
	if a.Fingerprint() == "" || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical datasets fingerprint %q vs %q, want equal and non-empty",
			a.Fingerprint(), b.Fingerprint())
	}
	// The fingerprint hashes content, not index layout.
	c := insertBuilt(t, a)
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatalf("index build mode changed the fingerprint: %q vs %q", c.Fingerprint(), a.Fingerprint())
	}
	d, err := repro.GenerateDataset("IND", 500, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() == a.Fingerprint() {
		t.Fatal("different datasets share a fingerprint")
	}
}

// TestCachedResultBitIdentical checks the acceptance criterion: a cached
// Result is identical to the uncached computation apart from the Cached
// flag, and the hit counter increments.
func TestCachedResultBitIdentical(t *testing.T) {
	ds := cacheDataset(t)
	plain, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := repro.NewEngine(ds, repro.WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const focal = 7
	opts := []repro.Option{repro.WithTau(1), repro.WithOutrankIDs(true)}

	want, err := plain.Query(ctx, focal, opts...)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cached.Query(ctx, focal, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported Cached=true")
	}
	second, err := cached.Query(ctx, focal, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated query reported Cached=false")
	}

	// CPU time and the work counters are per-run: the cached copy must
	// carry the original computation's Stats verbatim, and the plain-engine
	// baseline is compared with the run-dependent fields masked out.
	if second.Stats != first.Stats {
		t.Fatalf("cached Stats %+v differ from the original's %+v", second.Stats, first.Stats)
	}
	if !reflect.DeepEqual(answerOf(second), answerOf(first)) {
		t.Fatal("cached Result differs from the original computation beyond the Cached flag")
	}
	if !reflect.DeepEqual(answerOf(second), answerOf(want)) {
		t.Fatal("cached Result differs from an uncached engine's computation")
	}

	s := cached.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 || s.CacheSize != 1 || !s.CacheEnabled {
		t.Fatalf("Stats = %+v, want 1 hit, 1 miss, size 1, enabled", s)
	}
	if s.Queries != 2 {
		t.Fatalf("Stats.Queries = %d, want 2", s.Queries)
	}
}

// TestEngineSingleflight launches many concurrent identical queries and
// checks that exactly one computation happened (one cache miss).
func TestEngineSingleflight(t *testing.T) {
	// Page latency keeps the computation slow enough that the callers
	// genuinely overlap in the flight.
	ds := cacheDataset(t, repro.WithPageLatency(2*time.Millisecond))
	eng, err := repro.NewEngine(ds, repro.WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]*repro.Result, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Query(context.Background(), 3)
		}(i)
	}
	wg.Wait()

	uncached := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !results[i].Cached {
			uncached++
		}
		if results[i].KStar != results[0].KStar || len(results[i].Regions) != len(results[0].Regions) {
			t.Fatalf("caller %d disagrees: k*=%d regions=%d vs k*=%d regions=%d", i,
				results[i].KStar, len(results[i].Regions), results[0].KStar, len(results[0].Regions))
		}
	}
	if uncached != 1 {
		t.Fatalf("%d callers computed, want exactly 1 (singleflight collapse)", uncached)
	}
	s := eng.Stats()
	if s.CacheMisses != 1 || s.CacheHits != goroutines-1 {
		t.Fatalf("Stats = %+v, want 1 miss and %d hits", s, goroutines-1)
	}
}

// TestCacheKeyedByQueryIdentity checks that differing options and focals
// do not collide in the cache.
func TestCacheKeyedByQueryIdentity(t *testing.T) {
	ds := cacheDataset(t)
	eng, err := repro.NewEngine(ds, repro.WithCache(32))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []struct {
		name  string
		focal int
		opts  []repro.Option
	}{
		{"plain", 3, nil},
		{"other focal", 4, nil},
		{"tau", 3, []repro.Option{repro.WithTau(1)}},
		{"alg BA", 3, []repro.Option{repro.WithAlgorithm(repro.BA)}},
		{"ids", 3, []repro.Option{repro.WithOutrankIDs(true)}},
	}
	for _, q := range queries {
		res, err := eng.Query(ctx, q.focal, q.opts...)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if res.Cached {
			t.Fatalf("%s: served from cache, key collided with an earlier query", q.name)
		}
	}
	// Auto resolves to AA: the two share a key by design.
	res, err := eng.Query(ctx, 3, repro.WithAlgorithm(repro.AA))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("explicit AA missed the cache entry stored by Auto")
	}
	if s := eng.Stats(); s.CacheMisses != int64(len(queries)) || s.CacheHits != 1 {
		t.Fatalf("Stats = %+v, want %d misses and 1 hit", s, len(queries))
	}
}

func TestQueryPointCached(t *testing.T) {
	ds := cacheDataset(t)
	eng, err := repro.NewEngine(ds, repro.WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pt := []float64{0.9, 0.8, 0.85}
	first, err := eng.QueryPoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.QueryPoint(ctx, pt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("Cached = %t then %t, want false then true", first.Cached, second.Cached)
	}
	// A different point must not collide.
	other, err := eng.QueryPoint(ctx, []float64{0.9, 0.8, 0.8499})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Fatal("distinct what-if point served from cache")
	}
}

func TestEngineCacheEviction(t *testing.T) {
	ds := cacheDataset(t)
	eng, err := repro.NewEngine(ds, repro.WithCache(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, focal := range []int{1, 2, 1} { // 2 evicts 1; final 1 recomputes
		if _, err := eng.Query(ctx, focal); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.CacheEvictions != 2 || s.CacheMisses != 3 || s.CacheHits != 0 || s.CacheSize != 1 {
		t.Fatalf("Stats = %+v, want 3 misses, 2 evictions, size 1", s)
	}
	if s.CacheCapacity != 1 {
		t.Fatalf("CacheCapacity = %d, want 1", s.CacheCapacity)
	}
}

// TestErrBadQuery pins the classification of request-caused failures.
func TestErrBadQuery(t *testing.T) {
	ds := cacheDataset(t) // 3-d
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() error
	}{
		{"focal out of range", func() error { _, err := eng.Query(ctx, 10000); return err }},
		{"negative focal", func() error { _, err := eng.Query(ctx, -1); return err }},
		{"wrong point dim", func() error { _, err := eng.QueryPoint(ctx, []float64{0.5}); return err }},
		{"FCA on 3-d", func() error { _, err := eng.Query(ctx, 1, repro.WithAlgorithm(repro.FCA)); return err }},
		{"unknown algorithm", func() error { _, err := eng.Query(ctx, 1, repro.WithAlgorithm(repro.Algorithm(99))); return err }},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, repro.ErrBadQuery) {
			t.Errorf("%s: error %v does not wrap ErrBadQuery", tc.name, err)
		}
	}
	if _, err := eng.Query(ctx, 1); errors.Is(err, repro.ErrBadQuery) || err != nil {
		t.Fatalf("valid query errored: %v", err)
	}
}

// TestQueryBatchCached: QueryBatch consults and feeds the result cache
// like Query does. One worker makes the order fixed: a focal listed twice
// in one batch computes once and its second slot is a hit, a repeated
// batch is served from memory, and every cached member equals the
// computed one, cost counters included.
func TestQueryBatchCached(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 600, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds, repro.WithParallelism(1), repro.WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	focals := clusteredFocals(t, ds, 3, 8)
	focals = append(focals, focals[0])
	ctx := context.Background()
	fca := repro.WithAlgorithm(repro.FCA)
	first, err := eng.QueryBatch(ctx, focals, fca)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range first {
		if want := i == len(focals)-1; res.Cached != want {
			t.Errorf("first batch member %d: Cached = %v, want %v", i, res.Cached, want)
		}
	}
	second, err := eng.QueryBatch(ctx, focals, fca)
	if err != nil {
		t.Fatal(err)
	}
	for i := range focals {
		if !second[i].Cached {
			t.Errorf("repeat batch member %d not served from cache", i)
		}
		if !reflect.DeepEqual(answerOf(first[i]), answerOf(second[i])) {
			t.Errorf("repeat batch member %d differs from the first run", i)
		}
	}
	if s := eng.Stats(); s.CacheMisses != 8 || s.CacheHits != 10 {
		t.Errorf("Stats = %+v, want 8 misses and 10 hits", s)
	}
}

// TestNoCacheByDefault pins the default: engines without WithCache never
// report Cached and expose zeroed cache stats.
func TestNoCacheByDefault(t *testing.T) {
	ds := cacheDataset(t)
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := eng.Query(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("cacheless engine reported Cached=true")
		}
	}
	s := eng.Stats()
	if s.CacheEnabled || s.CacheHits != 0 || s.CacheCapacity != 0 {
		t.Fatalf("Stats = %+v, want cache disabled and zeroed", s)
	}
	if s.Queries != 2 {
		t.Fatalf("Stats.Queries = %d, want 2", s.Queries)
	}
}

// TestNegativeZeroFocalSharesCacheEntry: -0.0 and +0.0 are the same
// coordinate, so what-if queries for the two must collapse to one cache
// entry (the raw Float64bits of the pair differ; the key normalises).
func TestNegativeZeroFocalSharesCacheEntry(t *testing.T) {
	ds := cacheDataset(t)
	eng, err := repro.NewEngine(ds, repro.WithCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	posZero := []float64{0, 0.5, 0.5}
	negZero := []float64{math.Copysign(0, -1), 0.5, 0.5}
	first, err := eng.QueryPoint(ctx, posZero)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	second, err := eng.QueryPoint(ctx, negZero)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("-0.0 focal missed the +0.0 cache entry")
	}
	st := eng.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	// And the shared answer is the same answer.
	second.Cached = first.Cached
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached -0.0 answer differs from computed +0.0 answer")
	}
}
