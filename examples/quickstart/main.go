// Quickstart: run a MaxRank query on the paper's running example (Figure 1)
// and on a small synthetic dataset.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"repro"
)

func main() {
	// The dataset of Figure 1 in the paper: five competing options plus the
	// focal option p = (0.5, 0.5). Attributes could be hotel quality (d1)
	// and value-for-money (d2).
	points := [][]float64{
		{0.8, 0.9}, // r1 — dominates p: always ranks above it
		{0.2, 0.7}, // r2
		{0.9, 0.4}, // r3
		{0.7, 0.2}, // r4
		{0.4, 0.3}, // r5 — dominated by p: never ranks above it
		{0.5, 0.5}, // p, the focal option (index 5)
	}
	ds, err := repro.NewDataset(points)
	if err != nil {
		log.Fatal(err)
	}

	res, err := repro.Compute(ds, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k* = %d — the best rank option p can achieve\n", res.KStar)
	fmt.Printf("dominators: %d (these always outrank p)\n", res.Dominators)
	fmt.Printf("p achieves rank %d in %d region(s) of the preference space:\n",
		res.KStar, len(res.Regions))
	for i, reg := range res.Regions {
		fmt.Printf("  region %d: weights q1 in (%.2f, %.2f), e.g. preference %v\n",
			i+1, reg.BoxLo[0], reg.BoxHi[0], fmtVec(reg.QueryVector))
	}
	// The paper reports k* = 3 attained on q1 ∈ (0, 0.2) ∪ (0.4, 0.6).

	// The same machinery scales to larger synthetic datasets; here 20,000
	// hotel-like records in 4 dimensions. A competitive record (high
	// attribute sum) is the typical subject of a market-impact question —
	// MaxRank for very weak records is possible but answers a question
	// nobody asks (and costs accordingly, since thousands of competitors
	// shape the answer).
	big, err := repro.GenerateDataset("IND", 20000, 4, 1)
	if err != nil {
		log.Fatal(err)
	}
	strongest := competitiveRecords(big, 4)
	focal := strongest[0]
	res, err = repro.Compute(big, focal)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.Validate(big, focal, res); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n20K-record dataset: record #%d can rank as high as %d (of %d records)\n",
		focal, res.KStar, big.Len())
	fmt.Printf("query cost: %v CPU, %d page accesses, %d of %d records examined\n",
		res.Stats.CPUTime.Round(1e6), res.Stats.IO,
		res.Stats.IncomparableAccessed, big.Len())

	// Serving many queries? Hold an Engine: queries run concurrently
	// against the shared index, batches fan out over a worker pool, and a
	// context bounds the latency of the whole batch. Each query runs on one
	// goroutine; parallelism is across queries (see docs/PERFORMANCE.md).
	eng, err := repro.NewEngine(big, repro.WithParallelism(4))
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	batch := strongest
	start := time.Now()
	results, err := eng.QueryBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch of %d queries on %d workers in %v:\n",
		len(batch), eng.Parallelism(), time.Since(start).Round(1e6))
	for i, r := range results {
		fmt.Printf("  record #%-6d k* = %-6d io = %d pages\n", batch[i], r.KStar, r.Stats.IO)
	}
}

// competitiveRecords picks the k strongest records by attribute sum —
// the typical subjects of market-impact questions (MaxRank for weak
// records is possible but far more expensive, since thousands of
// competitors shape the answer).
func competitiveRecords(ds *repro.Dataset, k int) []int {
	type cand struct {
		idx int
		sum float64
	}
	cands := make([]cand, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		p, err := ds.Point(i)
		if err != nil {
			log.Fatal(err)
		}
		var s float64
		for _, v := range p {
			s += v
		}
		cands[i] = cand{idx: i, sum: s}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].sum > cands[b].sum })
	out := make([]int, k)
	for i := range out {
		out[i] = cands[i].idx
	}
	return out
}

func fmtVec(v []float64) string {
	s := "("
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + ")"
}
