// Hotel market impact analysis — the paper's motivating scenario.
//
// A hotel owner asks: across every possible customer preference over
// (stars, value, rooms, facilities), what is the best rank my hotel can
// reach on a top-k portal, which competitors stand in the way, and what do
// my most favourable customers look like?
//
//	go run ./examples/hotelmarket
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

var attrs = []string{"stars", "value", "rooms", "facilities"}

func main() {
	// A synthetic city of 5,000 hotels rated on four attributes in [0,1].
	rng := rand.New(rand.NewSource(7))
	hotels := make([][]float64, 5000)
	for i := range hotels {
		base := 0.2 + 0.6*rng.Float64() // latent hotel quality
		h := make([]float64, len(attrs))
		for j := range h {
			h[j] = clamp(base + 0.35*(rng.Float64()-0.5))
		}
		hotels[i] = h
	}
	// Our hotel: excellent value and facilities, mid-range stars and rooms.
	mine := []float64{0.55, 0.9, 0.5, 0.85}
	myIdx := len(hotels)
	hotels = append(hotels, mine)

	ds, err := repro.NewDataset(hotels)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := eng.Query(ctx, myIdx, repro.WithOutrankIDs(true))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("market of %d hotels — our hotel: %v\n", ds.Len()-1, mine)
	fmt.Printf("best achievable rank: #%d\n", res.KStar)
	fmt.Printf("%d hotels beat us under EVERY preference (dominators)\n", res.Dominators)
	fmt.Printf("that rank is reached in %d preference region(s)\n\n", len(res.Regions))

	for i, reg := range res.Regions {
		if i >= 3 {
			fmt.Printf("... and %d more regions\n", len(res.Regions)-i)
			break
		}
		fmt.Printf("region %d — a customer profile that loves us:\n", i+1)
		for j, a := range attrs {
			fmt.Printf("   weight on %-10s %.3f\n", a, reg.QueryVector[j])
		}
		fmt.Printf("   competitors still above us: %d record(s)\n", len(reg.OutrankIDs))
	}

	// The regions characterise our likely customers: aggregate the witness
	// preferences to see which attributes our fans weigh most.
	avg := make([]float64, len(attrs))
	for _, reg := range res.Regions {
		for j := range avg {
			avg[j] += reg.QueryVector[j]
		}
	}
	fmt.Println("\naverage winning preference (our target audience):")
	for j, a := range attrs {
		fmt.Printf("   %-10s %.3f\n", a, avg[j]/float64(len(res.Regions)))
	}

	// iMaxRank widens the net: preferences where we are within 3 ranks of
	// our best (strong, if not strongest, appeal — useful for a broader
	// marketing campaign).
	res3, err := eng.Query(ctx, myIdx, repro.WithTau(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\niMaxRank(τ=3): rank within %d..%d across %d region(s)\n",
		res3.KStar, res3.KStar+3, len(res3.Regions))
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
