package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// figure1 is the paper's running example (Figure 1): five competing
// records plus the focal record p = (0.5, 0.5) at index 5.
func figure1() *repro.Dataset {
	ds, err := repro.NewDataset([][]float64{
		{0.8, 0.9}, // r1 — dominates p
		{0.2, 0.7}, // r2
		{0.9, 0.4}, // r3
		{0.7, 0.2}, // r4
		{0.4, 0.3}, // r5 — dominated by p
		{0.5, 0.5}, // p, the focal record
	})
	if err != nil {
		log.Fatal(err)
	}
	return ds
}

// ExampleEngine_Query runs MaxRank for the paper's Figure 1 example: the
// focal record can rank as high as 3rd, in two regions of the preference
// space.
func ExampleEngine_Query() {
	eng, err := repro.NewEngine(figure1())
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query(context.Background(), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k* = %d in %d regions (dominators: %d)\n", res.KStar, len(res.Regions), res.Dominators)
	for _, reg := range res.Regions {
		fmt.Printf("rank %d for q1 in (%.1f, %.1f)\n", reg.Rank, reg.BoxLo[0], reg.BoxHi[0])
	}
	// Output:
	// k* = 3 in 2 regions (dominators: 1)
	// rank 3 for q1 in (0.0, 0.2)
	// rank 3 for q1 in (0.4, 0.6)
}

// ExampleWithCache shows the deduplicating result cache: a repeated query
// is answered from memory and flagged Cached, and the engine counters
// record the hit.
func ExampleWithCache() {
	eng, err := repro.NewEngine(figure1(), repro.WithCache(128))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	first, _ := eng.Query(ctx, 5)
	second, _ := eng.Query(ctx, 5)
	fmt.Printf("first: k* = %d, cached = %t\n", first.KStar, first.Cached)
	fmt.Printf("second: k* = %d, cached = %t\n", second.KStar, second.Cached)
	s := eng.Stats()
	fmt.Printf("hits = %d, misses = %d\n", s.CacheHits, s.CacheMisses)
	// Output:
	// first: k* = 3, cached = false
	// second: k* = 3, cached = true
	// hits = 1, misses = 1
}

// ExampleEngine_Apply mutates the Figure 1 market: the top competitor r1
// retires and a weak new product launches, so the focal record's best
// rank improves from 3rd to 2nd in the successor version while the
// original engine keeps serving the old catalog.
func ExampleEngine_Apply() {
	eng, err := repro.NewEngine(figure1())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	next, err := eng.Apply(ctx, []repro.Op{
		repro.DeleteOp(0),                     // r1, the sole dominator, retires
		repro.InsertOp([]float64{0.30, 0.25}), // a weak newcomer launches
	})
	if err != nil {
		log.Fatal(err)
	}
	// p shifted from index 5 to 4 (one lower-indexed record was deleted).
	res, err := next.Query(ctx, 4)
	if err != nil {
		log.Fatal(err)
	}
	old, err := eng.Query(ctx, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("new version: %d records, k* = %d\n", next.Dataset().Len(), res.KStar)
	fmt.Printf("old version still serves: %d records, k* = %d\n", eng.Dataset().Len(), old.KStar)
	// Output:
	// new version: 6 records, k* = 2
	// old version still serves: 6 records, k* = 3
}
