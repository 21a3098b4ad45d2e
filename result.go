package repro

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/vecmath"
)

// Result is the answer to a MaxRank (or iMaxRank) query.
type Result struct {
	// KStar is the best (smallest) rank the focal record can achieve under
	// any permissible preference vector.
	KStar int
	// Dominators is |D+|, the number of records that outrank the focal
	// record under every preference.
	Dominators int64
	// MinOrder is the minimum arrangement-cell order (KStar-Dominators-1).
	MinOrder int
	// Regions lists every region of the preference space where the focal
	// record's rank is within [KStar, KStar+τ], sorted by ascending rank.
	Regions []Region
	// Stats reports the query's cost counters. For a cached Result these
	// are the counters of the original computation, not of the lookup.
	Stats Stats
	// Cached reports that this Result was served from an engine's result
	// cache (see WithCache) rather than computed for this call. Results
	// from a cache-enabled engine share their Regions storage with the
	// cache: treat Regions as read-only whether or not Cached is set.
	// Apart from this flag, a cached Result is identical to the originally
	// computed one.
	Cached bool
}

// Region is one region of the preference space. Geometry lives in the
// reduced (d-1)-dimensional query space: a preference (q1..q_{d-1}) with
// q_d = 1 - Σ q_i.
type Region struct {
	// Rank of the focal record anywhere in this region (KStar..KStar+τ).
	Rank int
	// Order is the region's cell order (Rank - Dominators - 1).
	Order int
	// Witness is a point strictly inside the region, in reduced coordinates.
	Witness []float64
	// QueryVector is the witness lifted to a full d-dimensional preference.
	QueryVector []float64
	// BoxLo/BoxHi bound the region (the enclosing quad-tree leaf; for d = 2
	// they are exactly the q1 interval).
	BoxLo, BoxHi []float64
	// Constraints describe the region exactly: it is the set of reduced
	// query vectors q satisfying every constraint (A·q >= B), intersected
	// with the box and the domain simplex.
	Constraints []Constraint
	// OutrankIDs lists the records outranking the focal record in this
	// region (requires WithOutrankIDs).
	OutrankIDs []int64
}

// Constraint is a closed half-space A·q >= B in reduced query space.
type Constraint struct {
	A []float64
	B float64
}

// Contains reports whether a reduced-space preference vector lies in the
// region (within tol of every bounding constraint).
func (r *Region) Contains(q []float64, tol float64) bool {
	for i, v := range q {
		if v < r.BoxLo[i]-tol || v > r.BoxHi[i]+tol {
			return false
		}
	}
	for _, c := range r.Constraints {
		if vecmath.Point(c.A).Dot(q) < c.B-tol {
			return false
		}
	}
	return true
}

// Stats reports the cost counters the paper's evaluation tracks
// (Section 8).
type Stats struct {
	// CPUTime is the wall-clock time of the computation.
	CPUTime time.Duration
	// IO is the number of simulated page accesses attributed to this query.
	// Like IncomparableAccessed and the LP/leaf counters, it reflects the
	// physical index layout: datasets holding the same records but indexed
	// differently (bulk load vs incremental mutation via Dataset.Apply)
	// report different costs for bit-identical answers.
	IO int64
	// IncomparableAccessed is n (BA/FCA) or n_a (AA): the incomparable
	// records the algorithm actually examined.
	IncomparableAccessed int64
	// HalfspacesInserted counts half-spaces inserted into the quad-tree.
	HalfspacesInserted int
	// LPCalls counts simplex invocations by the within-leaf enumerator.
	LPCalls int64
	// LeavesProcessed and LeavesPruned count quad-tree leaves enumerated
	// versus discarded by the order bounds. The quad-tree splits a node only
	// when a query needs its children, so a node that is never split counts
	// as one pruned leaf, however many eager splitting would have made.
	LeavesProcessed int
	LeavesPruned    int
	// Iterations counts AA's incremental expansion rounds (1 for BA/FCA).
	Iterations int
	// Algorithm is the strategy that produced the result (Auto resolved).
	Algorithm Algorithm
}

func convertResult(res *core.Result, alg Algorithm) *Result {
	out := &Result{
		KStar:      res.KStar,
		Dominators: res.Dominators,
		MinOrder:   res.MinOrder,
		Regions:    make([]Region, 0, len(res.Regions)),
		Stats: Stats{
			CPUTime:              res.Stats.CPUTime,
			IO:                   res.Stats.IO,
			IncomparableAccessed: res.Stats.IncomparableAccessed,
			HalfspacesInserted:   res.Stats.HalfspacesInserted,
			LPCalls:              res.Stats.LPCalls,
			LeavesProcessed:      res.Stats.LeavesProcessed,
			LeavesPruned:         res.Stats.LeavesPruned,
			Iterations:           res.Stats.Iterations,
			Algorithm:            alg,
		},
	}
	for i := range res.Regions {
		reg := &res.Regions[i]
		r := Region{
			Rank:        int(res.Dominators) + reg.Order + 1,
			Order:       reg.Order,
			Witness:     reg.Witness.Clone(),
			QueryVector: reg.QueryVector(),
			BoxLo:       reg.Box.Lo.Clone(),
			BoxHi:       reg.Box.Hi.Clone(),
			OutrankIDs:  reg.OutrankIDs,
		}
		for _, h := range reg.Constraints {
			r.Constraints = append(r.Constraints, Constraint{A: h.A.Clone(), B: h.B})
		}
		out.Regions = append(out.Regions, r)
	}
	return out
}

// Validate re-checks a Result against the dataset by direct scoring at
// every region witness; it returns an error describing the first mismatch.
// A witness where some record other than a copy of the focal record scores
// exactly the focal record's score is an error too: it lies on that
// record's hyperplane, inside no region. Validate is cheap insurance for
// library users and is used heavily in tests.
func Validate(ds *Dataset, focalIndex int, res *Result) error {
	t := &ds.tab
	focal := t.row(focalIndex)
	for i := range res.Regions {
		reg := &res.Regions[i]
		q := vecmath.Point(reg.QueryVector)
		if !vecmath.IsPermissible(q, 1e-9) {
			return fmt.Errorf("repro: region %d witness lifts to non-permissible %v", i, q)
		}
		fs := focal.Dot(q)
		rank := 1
		for k, c := range t.chunks {
			for j := range c.ids {
				if t.starts[k]+j == focalIndex {
					continue
				}
				r := vecmath.Point(c.coords[j*t.dim : (j+1)*t.dim])
				switch s := r.Dot(q); {
				case s > fs:
					rank++
				case s == fs && !r.Equal(focal):
					return fmt.Errorf("repro: region %d witness %v ties record %d with the focal record", i, reg.Witness, t.starts[k]+j)
				}
			}
		}
		if rank != reg.Rank {
			return fmt.Errorf("repro: region %d claims rank %d but direct scoring gives %d", i, reg.Rank, rank)
		}
	}
	if len(res.Regions) > 0 && res.Regions[0].Rank != res.KStar {
		return fmt.Errorf("repro: best region rank %d != k* %d", res.Regions[0].Rank, res.KStar)
	}
	return nil
}
