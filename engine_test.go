package repro_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro"
)

// shared10k lazily builds the acceptance-test dataset (IND, n = 10k, d = 3)
// plus its records sorted by descending attribute sum: strong records are
// the paper's typical query subjects and keep the large-scale tests fast.
var shared10k struct {
	once sync.Once
	ds   *repro.Dataset
	top  []int // record indexes, strongest first
	err  error
}

func get10k(t testing.TB) (*repro.Dataset, []int) {
	t.Helper()
	s := &shared10k
	s.once.Do(func() {
		s.ds, s.err = repro.GenerateDataset("IND", 10000, 3, 42)
		if s.err != nil {
			return
		}
		type cand struct {
			idx int
			sum float64
		}
		cands := make([]cand, s.ds.Len())
		for i := range cands {
			p, err := s.ds.Point(i)
			if err != nil {
				s.err = err
				return
			}
			cands[i] = cand{i, p[0] + p[1] + p[2]}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].sum > cands[b].sum })
		s.top = make([]int, len(cands))
		for i, c := range cands {
			s.top[i] = c.idx
		}
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.ds, s.top
}

// batchFocals spreads 64 focal records over the strongest quarter-thousand.
func batchFocals(top []int) []int {
	focals := make([]int, 64)
	for i := range focals {
		focals[i] = top[i*4]
	}
	return focals
}

// clusteredFocals returns the m dataset indexes nearest (L2) to record
// `around`: a batch whose members share most of their index pages.
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

// TestQueryBatchMatchesSequential is the acceptance check: a parallel batch
// over 64 focal records of the 10k dataset must reproduce the answers of
// lone queries on a fresh engine exactly — same ranks, same regions, same witnesses. For
// FCA and BA, the algorithms that scan the whole incomparable set, every
// member of a clustered, a scattered and a duplicate-containing batch, at
// τ 0 and 2 with outranking IDs, must equal a lone Query's answer and
// every cost counter of it, IO included. Run under -race in CI.
func TestQueryBatchMatchesSequential(t *testing.T) {
	ds, top := get10k(t)
	focals := batchFocals(top)

	eng, err := repro.NewEngine(ds, repro.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.QueryBatch(context.Background(), focals)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(focals) {
		t.Fatalf("batch returned %d results for %d focals", len(batch), len(focals))
	}
	for i, focal := range focals {
		seq, err := query(ds, focal)
		if err != nil {
			t.Fatalf("sequential focal %d: %v", focal, err)
		}
		assertSameResult(t, focal, batch[i], seq)
		if err := repro.Validate(ds, focal, batch[i]); err != nil {
			t.Fatalf("focal %d: %v", focal, err)
		}
	}

	checkBatchMembersMatchLone(t, []batchCase{
		{"COR", 700, 2, repro.FCA},
		{"IND", 300, 3, repro.BA}, // BA materialises every incomparable half-space: keep n small
	})
}

// TestBatchSharingBitIdentical runs the default algorithm choice through
// the same clustered, scattered and duplicate-containing batches, at τ 0
// and 2 with outranking IDs: every member must equal a lone Query's
// answer, cost counters included. The name dates from the shared-prefix
// batch path, since removed; a batch is now the worker pool over
// independent queries, and this pins that it stays bit-identical.
func TestBatchSharingBitIdentical(t *testing.T) {
	checkBatchMembersMatchLone(t, []batchCase{
		{"IND", 800, 3, repro.Auto},
		{"ANTI", 400, 2, repro.Auto},
	})
}

// TestQueryBatchSharedErrors: a BA batch keeps the QueryBatch contract —
// a bad focal fails the batch with ErrBadQuery wrapped, and a cancelled
// context aborts it with ctx.Err.
func TestQueryBatchSharedErrors(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 300, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ba := repro.WithAlgorithm(repro.BA)
	if _, err := eng.QueryBatch(context.Background(), []int{1, 2, 9999}, ba); !errors.Is(err, repro.ErrBadQuery) {
		t.Errorf("out-of-range focal: err = %v, want ErrBadQuery", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryBatch(ctx, []int{1, 2, 3}, ba); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch: err = %v, want context.Canceled", err)
	}
}

type batchCase struct {
	dist   string
	n, dim int
	alg    repro.Algorithm
}

// checkBatchMembersMatchLone runs, for each case, a clustered, a scattered
// and a duplicate-containing batch at τ 0 and 2 with outranking IDs on a
// 3-worker engine, and compares every member with a lone Query by answerOf,
// Stats.IO included.
func checkBatchMembersMatchLone(t *testing.T, cases []batchCase) {
	t.Helper()
	ctx := context.Background()
	for _, tc := range cases {
		ds, err := repro.GenerateDataset(tc.dist, tc.n, tc.dim, 5)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := repro.NewEngine(ds, repro.WithParallelism(3))
		if err != nil {
			t.Fatal(err)
		}
		cluster := clusteredFocals(t, ds, 17, 12)
		scattered := make([]int, 10)
		for i := range scattered {
			scattered[i] = (i * 73) % ds.Len()
		}
		mixed := append(append([]int{}, cluster[:8]...), scattered...)
		mixed = append(mixed, cluster[0]) // a focal twice in one batch
		for _, focals := range [][]int{cluster, scattered, mixed} {
			for _, tau := range []int{0, 2} {
				opts := []repro.Option{repro.WithAlgorithm(tc.alg), repro.WithTau(tau), repro.WithOutrankIDs(true)}
				batch, err := eng.QueryBatch(ctx, focals, opts...)
				if err != nil {
					t.Fatalf("%s/d%d/%v tau=%d batch: %v", tc.dist, tc.dim, tc.alg, tau, err)
				}
				for i, focal := range focals {
					lone, err := eng.Query(ctx, focal, opts...)
					if err != nil {
						t.Fatalf("%s/d%d/%v tau=%d focal %d: %v", tc.dist, tc.dim, tc.alg, tau, focal, err)
					}
					if !reflect.DeepEqual(answerOf(batch[i]), answerOf(lone)) {
						t.Errorf("%s/d%d/%v tau=%d focal %d: batch member differs from a lone query\n got: %+v\nwant: %+v",
							tc.dist, tc.dim, tc.alg, tau, focal, batch[i].Stats, lone.Stats)
					}
				}
			}
		}
	}
}

func assertSameResult(t *testing.T, focal int, got, want *repro.Result) {
	t.Helper()
	if got.KStar != want.KStar || got.Dominators != want.Dominators || got.MinOrder != want.MinOrder {
		t.Fatalf("focal %d: batch (k*=%d dom=%d min=%d) != sequential (k*=%d dom=%d min=%d)",
			focal, got.KStar, got.Dominators, got.MinOrder,
			want.KStar, want.Dominators, want.MinOrder)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("focal %d: batch has %d regions, sequential %d", focal, len(got.Regions), len(want.Regions))
	}
	for r := range got.Regions {
		g, w := &got.Regions[r], &want.Regions[r]
		if g.Rank != w.Rank || g.Order != w.Order {
			t.Fatalf("focal %d region %d: rank/order (%d,%d) != (%d,%d)",
				focal, r, g.Rank, g.Order, w.Rank, w.Order)
		}
		for i := range g.Witness {
			if g.Witness[i] != w.Witness[i] {
				t.Fatalf("focal %d region %d: witness %v != %v", focal, r, g.Witness, w.Witness)
			}
		}
		for i := range g.BoxLo {
			if g.BoxLo[i] != w.BoxLo[i] || g.BoxHi[i] != w.BoxHi[i] {
				t.Fatalf("focal %d region %d: box [%v,%v] != [%v,%v]",
					focal, r, g.BoxLo, g.BoxHi, w.BoxLo, w.BoxHi)
			}
		}
	}
}

// TestConcurrentQueries hammers one shared Dataset from many goroutines —
// direct Query calls, QueryPoint what-ifs and a QueryBatch all in flight at
// once. Run under -race this is the concurrency-safety check for the whole
// stack (pager, R*-tree, skyline, core, engine).
func TestConcurrentQueries(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 1000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds, repro.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 4; q++ {
				focal := (g*911 + q*37) % ds.Len()
				res, err := eng.Query(ctx, focal, repro.WithTau(q%2))
				if err != nil {
					errc <- err
					return
				}
				if err := repro.Validate(ds, focal, res); err != nil {
					errc <- err
					return
				}
				if res.Stats.IO <= 0 {
					errc <- errors.New("query reported no I/O under concurrency")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := eng.QueryBatch(ctx, []int{1, 2, 3, 5, 8, 13, 21, 34}); err != nil {
			errc <- err
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := eng.QueryPoint(ctx, []float64{0.9, 0.85, 0.88}); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestQueryParallelismMatchesSequential pins the deprecated
// WithQueryParallelism shim as a no-op: for every algorithm on every
// benchmark distribution, an engine built with WithQueryParallelism(8)
// returns exactly what an engine built without it returns — regions,
// ranks, witnesses and every Stats field but CPUTime. It goes when the
// shim does.
func TestQueryParallelismMatchesSequential(t *testing.T) {
	type tcase struct {
		dist string
		n, d int
		alg  repro.Algorithm
		tau  int
	}
	var cases []tcase
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		for _, tau := range []int{0, 2} {
			cases = append(cases,
				tcase{dist, 1000, 2, repro.FCA, tau},
				tcase{dist, 1000, 2, repro.AA, tau}, // d=2: the AA2D specialisation
				tcase{dist, 400, 3, repro.BA, tau},
				tcase{dist, 400, 3, repro.AA, tau},
			)
		}
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/d=%d/%v/tau=%d", tc.dist, tc.d, tc.alg, tc.tau), func(t *testing.T) {
			t.Parallel()
			ds, err := repro.GenerateDataset(tc.dist, tc.n, tc.d, 3)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := repro.NewEngine(ds)
			if err != nil {
				t.Fatal(err)
			}
			shim, err := repro.NewEngine(ds, repro.WithQueryParallelism(8))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			opts := []repro.Option{repro.WithAlgorithm(tc.alg), repro.WithTau(tc.tau), repro.WithOutrankIDs(true)}
			for q := 0; q < 4; q++ {
				focal := (q*797 + 13) % ds.Len()
				want, err := plain.Query(ctx, focal, opts...)
				if err != nil {
					t.Fatalf("focal %d: %v", focal, err)
				}
				got, err := shim.Query(ctx, focal, opts...)
				if err != nil {
					t.Fatalf("focal %d with the shim: %v", focal, err)
				}
				if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
					t.Fatalf("focal %d: WithQueryParallelism(8) changed the result\n got: %+v\nwant: %+v", focal, got, want)
				}
			}
		})
	}
}

// TestQueryCancellation checks both flavours of promptness: a
// pre-cancelled context fails immediately, and cancelling an expensive
// in-flight d = 3 AA query mid-expansion makes it return long before it
// would have finished.
func TestQueryCancellation(t *testing.T) {
	ds, _ := get10k(t)
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Query(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query returned %v, want context.Canceled", err)
	}
	if _, err := eng.QueryBatch(ctx, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch returned %v, want context.Canceled", err)
	}

	// A CPU-bound query can beat any fixed deadline on a fast machine (the
	// weakest record of the 10k dataset answers in tens of milliseconds),
	// so make the slow query deterministically slow: simulated page latency
	// pushes even a strong focal's runtime to hundreds of milliseconds.
	// Cancel after 50ms and require a return well under the uncancelled
	// runtime.
	slow, err := repro.GenerateDataset("IND", 2000, 3, 42, repro.WithPageLatency(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	slowEng, err := repro.NewEngine(slow)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = slowEng.Query(ctx, 17)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled query returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled query took %v to return", elapsed)
	}

	// The 50ms deadline lands in the dominator count, which reads the first
	// 6 of the query's 23 pages. Cancelling at 120ms lands after it, in AA's
	// skyline build and expansion; the query cannot finish before 230ms of
	// page waits.
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(120*time.Millisecond, cancel)
	start = time.Now()
	_, err = slowEng.Query(ctx, 17)
	elapsed = time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("query cancelled mid-expansion returned %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("query cancelled mid-expansion took %v to return", elapsed)
	}
}

// TestQueryParallelCancellationMidExpansion cancels several d = 3 AA
// queries running in parallel on one engine, each on its own goroutine,
// while their expansions are in flight: one shared cancel must stop all of
// them, each returning context.Canceled long before its uncancelled
// runtime. Page latency makes every query deterministically slow, as in
// TestQueryCancellation.
func TestQueryParallelCancellationMidExpansion(t *testing.T) {
	slow, err := repro.GenerateDataset("IND", 2000, 3, 42, repro.WithPageLatency(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(slow)
	if err != nil {
		t.Fatal(err)
	}

	focals := []int{17, 101, 503, 997}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, len(focals))
	start := time.Now()
	for _, focal := range focals {
		go func(focal int) {
			_, err := eng.Query(ctx, focal, repro.WithAlgorithm(repro.AA))
			done <- err
		}(focal)
	}
	time.AfterFunc(120*time.Millisecond, cancel)
	timeout := time.After(10 * time.Second)
	for range focals {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled parallel query returned %v, want context.Canceled", err)
			}
		case <-timeout:
			t.Fatal("a cancelled parallel query never returned")
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestEngineQueryMatchesCompute pins that an engine's state does not leak
// into answers: a long-lived engine that has already served other queries
// answers a record and a what-if record exactly as a fresh engine does.
func TestEngineQueryMatchesCompute(t *testing.T) {
	ds, err := repro.GenerateDataset("COR", 800, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	what := []float64{0.7, 0.6, 0.65}
	for _, focal := range []int{3, 17, 400} {
		if _, err := eng.Query(ctx, focal, repro.WithAlgorithm(repro.BA)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := eng.Query(ctx, 17, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := query(ds, 17, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, 17, a, b)

	c, err := eng.QueryPoint(ctx, what)
	if err != nil {
		t.Fatal(err)
	}
	d, err := queryPoint(ds, what)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, -1, c, d)
}

// TestEngineValidation covers the engine's error paths.
func TestEngineValidation(t *testing.T) {
	if _, err := repro.NewEngine(nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
	ds, err := repro.GenerateDataset("IND", 50, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := repro.NewEngine(ds, repro.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(context.Background(), -1); err == nil {
		t.Fatal("negative focal accepted")
	}
	if _, err := eng.Query(context.Background(), ds.Len()); err == nil {
		t.Fatal("out-of-range focal accepted")
	}
	if _, err := eng.QueryPoint(context.Background(), []float64{0.5}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := eng.QueryBatch(context.Background(), []int{0, ds.Len()}); err == nil {
		t.Fatal("batch with out-of-range focal accepted")
	}
	res, err := eng.QueryBatch(context.Background(), nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
}

// BenchmarkQueryBatch measures batch throughput at different worker-pool
// sizes over the same 64 focal records used by the acceptance test. Each
// query runs on one goroutine, so parallel=1 is the fully sequential
// baseline and the in-memory series scales with physical cores; the
// simulated-disk series
// (5 ms per page access, the paper's disk-resident scenario) shows the
// engine overlapping I/O waits — parallel=4 must beat parallel=1 by well
// over 1.5x wall-clock even on a single core.
func BenchmarkQueryBatch(b *testing.B) {
	ds, top := get10k(b)
	focals := batchFocals(top)
	run := func(b *testing.B, ds *repro.Dataset, parallel int) {
		eng, err := repro.NewEngine(ds, repro.WithParallelism(parallel))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := eng.QueryBatch(context.Background(), focals); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, parallel := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("memory/parallel=%d", parallel), func(b *testing.B) {
			run(b, ds, parallel)
		})
	}

	disk, err := repro.GenerateDataset("IND", 10000, 3, 42, repro.WithPageLatency(5*time.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	for _, parallel := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("disk5ms/parallel=%d", parallel), func(b *testing.B) {
			run(b, disk, parallel)
		})
	}
}
