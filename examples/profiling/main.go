// Customer profiling with region probabilities.
//
// The paper observes that "if the probability distribution of q in the
// query space is known, the MaxRank regions enable the computation of the
// probability that p achieves its smallest possible order k*". This example
// estimates exactly that by Monte-Carlo over two preference models: uniform
// preferences, and preferences biased toward the first attribute.
//
//	go run ./examples/profiling
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
)

func main() {
	ds, err := repro.GenerateDataset("IND", 8000, 3, 5)
	if err != nil {
		log.Fatal(err)
	}
	// Profile a competitive option (a weak record's best-rank regions are
	// slivers and every probability rounds to zero — true but useless).
	focal := 0
	bestSum := -1.0
	for i := 0; i < ds.Len(); i++ {
		p, err := ds.Point(i)
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		for _, v := range p {
			sum += v
		}
		if sum > bestSum {
			bestSum, focal = sum, i
		}
	}
	eng, err := repro.NewEngine(ds)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Query(context.Background(), focal, repro.WithTau(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("record #%d: best rank %d, %d region(s) within rank %d\n",
		focal, res.KStar, len(res.Regions), res.KStar+1)

	// P[rank(p) <= k*+τ] under a preference model = the probability that a
	// random preference falls inside one of the regions.
	models := []struct {
		name string
		draw func(r *rand.Rand) []float64
	}{
		{"uniform preferences", drawUniform},
		{"attribute-1 enthusiasts", drawBiased},
	}
	const trials = 200000
	for _, mdl := range models {
		rng := rand.New(rand.NewSource(17))
		hitBest, hitBand := 0, 0
		for t := 0; t < trials; t++ {
			q := mdl.draw(rng)
			reduced := q[:len(q)-1]
			for i := range res.Regions {
				reg := &res.Regions[i]
				if reg.Contains(reduced, 0) {
					hitBand++
					if reg.Rank == res.KStar {
						hitBest++
					}
					break
				}
			}
		}
		fmt.Printf("%-26s P[rank = k*] ≈ %.4f   P[rank <= k*+1] ≈ %.4f\n",
			mdl.name, float64(hitBest)/trials, float64(hitBand)/trials)
	}
	fmt.Println("\n(interpretation: the second model's probabilities tell the provider")
	fmt.Println(" how much of the attribute-1-loving audience it can win at its best)")
}

// drawUniform samples a permissible preference uniformly from the simplex.
func drawUniform(rng *rand.Rand) []float64 {
	w := make([]float64, 3)
	var sum float64
	for i := range w {
		w[i] = rng.ExpFloat64() + 1e-12
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// drawBiased samples preferences that put extra weight on attribute 1.
func drawBiased(rng *rand.Rand) []float64 {
	w := drawUniform(rng)
	w[0] += 1
	sum := w[0] + w[1] + w[2]
	for i := range w {
		w[i] /= sum
	}
	return w
}
