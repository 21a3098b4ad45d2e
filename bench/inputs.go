package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/server/apiv1"
)

// shape names a synthetic dataset. Each workload queries one fixed dataset:
// MaxRank's cost per focal record spans four orders of magnitude on one
// dataset (a few records of IND n=1500 d=4 take over 10 s each), so a sample
// drawn afresh per seed moves every median by more than any bound worth
// setting. The seed instead draws which focals, requests and mutations a run
// issues, stratified over a committed table of per-focal cost ranks.
type shape struct {
	Dist string `json:"dist"`
	N    int    `json:"n"`
	D    int    `json:"d"`
	Seed int64  `json:"seed"`
}

var shapes = map[string]shape{
	"heavy_d4":     {Dist: "IND", N: 1500, D: 4, Seed: 20150831},
	"wide_d2":      {Dist: "IND", N: 5000, D: 2, Seed: 20150832},
	"serve_mix":    {Dist: "IND", N: 2000, D: 2, Seed: 20150833},
	"mutate_cycle": {Dist: "IND", N: 100000, D: 2, Seed: 20150834},
}

//go:embed testdata/*.json
var testdata embed.FS

// pool is the committed table of candidate focals for one workload, in
// ascending order of the time the baseline commit took to answer each, with
// the answer it gave. Focals slower than CapMs were left out so that a run
// fits its time budget; Excluded of Candidates says how many.
type pool struct {
	Dataset    shape     `json:"dataset"`
	CapMs      float64   `json:"cap_ms"`
	Candidates int       `json:"candidates"`
	Excluded   int       `json:"excluded"`
	Focals     []int     `json:"focals"`
	Ms         []float64 `json:"ms"`
	KStar      []int     `json:"kstar"`
	Regions    []int     `json:"regions"`
	IO         []int64   `json:"io"`
}

func loadPool(workload string) (*pool, error) {
	data, err := testdata.ReadFile("testdata/pool_" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("no focal pool for %s (run with -update-testdata): %w", workload, err)
	}
	var p pool
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("pool_%s.json: %w", workload, err)
	}
	if p.Dataset != shapes[workload] {
		return nil, fmt.Errorf("pool_%s.json was built for %+v, the workload now uses %+v (run with -update-testdata)", workload, p.Dataset, shapes[workload])
	}
	return &p, nil
}

// stratifiedSample draws l of the pool's entries, one from each of l
// equal-count strata of the cost order, and shuffles them. Every seed's list
// therefore has the same cost profile to within a stratum's width, while the
// focals themselves differ.
func stratifiedSample(rng *rand.Rand, poolLen, l int) []int {
	if l > poolLen {
		l = poolLen
	}
	out := make([]int, l)
	for j := range out {
		lo, hi := j*poolLen/l, (j+1)*poolLen/l
		out[j] = lo + rng.Intn(hi-lo)
	}
	rng.Shuffle(l, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// request is one generated HTTP request of the serve_mix stream.
type request struct {
	Kind   string // "whatif", "focal" or "batch"
	Path   string
	Body   []byte
	Focals []int     // focal: one index; batch: the batch's indexes
	Point  []float64 // whatif
}

// The stream's mix, fixed per block of ten requests so that the load is
// even at any scale: six what-if points, three in-dataset focals (two new,
// one a repeat), one batch. With a fifth of the requests new focals, that
// is cache misses, the p90 of a window falls at the median miss and not at
// the knee between misses and everything else.
const (
	blockRequests = 10
	blockWhatIf   = 6
	blockFresh    = 2
	blockRepeat   = 1
	epochBlocks   = 20 // an epoch's new focals are one stratified sample
	epochRequests = epochBlocks * blockRequests
	batchSize     = 8
	zipfS         = 1.1 // of the recency distance of a repeat
)

// requestStream generates n requests over the pool's dataset. What-if points
// are uniform; a batch is eight adjacent records. The new focals of each
// epoch of 200 requests are a stratified sample of the pool's cost order, so
// that every epoch's cache misses cost the same in sum, whatever the seed; a
// repeat asks again for the focal requested z focal requests ago, z
// Zipf-distributed, so that most repeats hit the result cache and the far
// tail finds its entry evicted.
func requestStream(seed int64, p *pool, n int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	blocks := (n + blockRequests - 1) / blockRequests
	var fresh []int
	var asked []int // every focal request so far, oldest first
	kinds := make([]string, 0, blockRequests)
	out := make([]request, 0, blocks*blockRequests)
	for b := 0; b < blocks; b++ {
		if b%epochBlocks == 0 {
			// One more than the epoch needs, should the stream open with
			// a repeat, which then has nothing to repeat.
			fresh = stratifiedSample(rng, len(p.Focals), blockFresh*epochBlocks+1)
		}
		kinds = kinds[:0]
		for i := 0; i < blockRequests; i++ {
			switch {
			case i < blockWhatIf:
				kinds = append(kinds, "whatif")
			case i < blockWhatIf+blockFresh:
				kinds = append(kinds, "focal")
			case i < blockWhatIf+blockFresh+blockRepeat:
				kinds = append(kinds, "repeat")
			default:
				kinds = append(kinds, "batch")
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range kinds {
			var body any
			r := request{Kind: kind, Path: "/v1/query"}
			switch kind {
			case "whatif":
				r.Point = make([]float64, p.Dataset.D)
				for j := range r.Point {
					r.Point[j] = rng.Float64()
				}
				body = apiv1.QueryRequest{Point: r.Point, Algorithm: "FCA", Priority: apiv1.PriorityInteractive}
			case "focal", "repeat":
				var f int
				if kind == "repeat" && len(asked) > 0 {
					z := rand.NewZipf(rng, zipfS, 1, uint64(len(asked)-1)).Uint64()
					f = asked[len(asked)-1-int(z)]
				} else {
					f, fresh = p.Focals[fresh[0]], fresh[1:]
				}
				r.Kind = "focal"
				asked = append(asked, f)
				r.Focals = []int{f}
				body = apiv1.QueryRequest{Focal: &f}
			case "batch":
				r.Path = "/v1/batch"
				start := rng.Intn(p.Dataset.N - batchSize)
				for j := 0; j < batchSize; j++ {
					r.Focals = append(r.Focals, start+j)
				}
				body = apiv1.BatchRequest{Focals: r.Focals, Algorithm: "FCA", Priority: apiv1.PriorityBulk}
			}
			data, err := json.Marshal(body)
			if err != nil {
				return nil, err
			}
			r.Body = data
			out = append(out, r)
		}
	}
	return out[:n], nil
}

// mutation is one cycle's inputs for mutate_cycle: a batch of inserts and
// deletes against a dataset of n records, and the focals read afterwards.
type mutation struct {
	Inserts [][]float64
	Deletes []int
	Reads   []int // focal indexes for the FCA reads that follow
}

const (
	insertsPerCycle = 32
	deletesPerCycle = 32
	readsPerCycle   = 6 // 2 on the successor, 4 on a reloaded snapshot
)

// mutationFor derives cycle c's inputs from the seed alone, so the stream
// does not depend on how many cycles a run has time for.
func mutationFor(seed int64, c, n, dim int) mutation {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(c)))
	var m mutation
	for i := 0; i < insertsPerCycle; i++ {
		pt := make([]float64, dim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		m.Inserts = append(m.Inserts, pt)
	}
	taken := make(map[int]bool, deletesPerCycle)
	for len(m.Deletes) < deletesPerCycle {
		if i := rng.Intn(n); !taken[i] {
			taken[i] = true
			m.Deletes = append(m.Deletes, i)
		}
	}
	for i := 0; i < readsPerCycle; i++ {
		m.Reads = append(m.Reads, rng.Intn(n))
	}
	return m
}
