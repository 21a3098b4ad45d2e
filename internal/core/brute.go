package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// BruteResult is the oracle's answer.
type BruteResult struct {
	KStar      int
	MinOrder   int
	Dominators int64
}

// bruteRun adapts the index-free oracle to the Algorithm strategy
// interface: it scans the whole tree (honestly charged as I/O), runs the
// enumeration, and reports k* without regions. Intended for tests,
// validation and tiny datasets — cost grows combinatorially with the
// number of incomparable records.
func bruteRun(in Input) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	start := timeNow()
	ctx, rd, tr := in.begin()
	var records []vecmath.Point
	focalIdx := -1
	err := rd.Descend(ctx, func(e *rstar.Entry, leaf bool) (bool, error) {
		if leaf {
			if e.RecordID == in.FocalID {
				focalIdx = len(records)
			}
			records = append(records, e.Point().Clone())
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	br, err := bruteForce(ctx, records, in.Focal, focalIdx, in.FocalID+20150831, 4000)
	if err != nil {
		return nil, err
	}
	res := &Result{
		KStar:      br.KStar,
		MinOrder:   br.MinOrder,
		Dominators: br.Dominators,
	}
	res.Stats.Dominators = br.Dominators
	res.Stats.Iterations = 1
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}

// BruteForce computes k* by direct enumeration, independent of every index
// structure: it enumerates candidate query vectors at (perturbations of)
// all vertices of the half-space arrangement restricted to the domain
// simplex, plus random samples, and scores the full dataset at each. With
// enough perturbations per vertex this visits every full-dimensional cell
// of the arrangement, so it is an (almost surely) exact oracle for the
// small instances used in tests, and a lower-bound sanity check elsewhere.
func BruteForce(records []vecmath.Point, focal vecmath.Point, focalIdx int, seed int64, extraSamples int) BruteResult {
	res, _ := bruteForce(context.Background(), records, focal, focalIdx, seed, extraSamples)
	return res
}

// bruteForce is BruteForce with cancellation: the context is polled every
// few thousand candidate evaluations, since the vertex enumeration grows
// combinatorially with the number of incomparable records.
func bruteForce(ctx context.Context, records []vecmath.Point, focal vecmath.Point, focalIdx int, seed int64, extraSamples int) (BruteResult, error) {
	d := len(focal)
	dr := d - 1
	rng := rand.New(rand.NewSource(seed))

	var dominators int64
	var incomparable []vecmath.Point
	for i, r := range records {
		if i == focalIdx {
			continue
		}
		switch vecmath.Compare(r, focal) {
		case vecmath.Dominates:
			dominators++
		case vecmath.Incomparable:
			incomparable = append(incomparable, r)
		}
	}

	// Hyperplanes: record boundaries plus the domain facets.
	var planes []plane
	for _, r := range incomparable {
		h := geom.RecordHalfspace(r, focal)
		planes = append(planes, plane{a: h.A, b: h.B})
	}
	for i := 0; i < dr; i++ {
		a := make(vecmath.Point, dr)
		a[i] = 1
		planes = append(planes, plane{a: a, b: 0})
	}
	sumA := make(vecmath.Point, dr)
	for i := range sumA {
		sumA[i] = -1
	}
	planes = append(planes, plane{a: sumA, b: -1})

	orderAt := func(q vecmath.Point) (int, bool) {
		// q is in reduced space; require strict interior of the domain.
		var s float64
		for _, v := range q {
			if v <= 1e-12 {
				return 0, false
			}
			s += v
		}
		if s >= 1-1e-12 {
			return 0, false
		}
		full := vecmath.LiftQuery(q)
		fs := focal.Dot(full)
		order := 0
		for _, r := range incomparable {
			if r.Dot(full) > fs {
				order++
			}
		}
		return order, true
	}

	best := len(incomparable) + 1
	consider := func(q vecmath.Point) {
		if o, ok := orderAt(q); ok && o < best {
			best = o
		}
	}

	// Vertex perturbations: every size-dr subset of hyperplanes. The
	// context is polled once per vertex (the per-vertex work is bounded,
	// the number of vertices is not).
	idx := make([]int, dr)
	var rec func(start, k int) error
	rec = func(start, k int) error {
		if k == dr {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, ok := solveSquare(planes, idx, dr)
			if !ok {
				return nil
			}
			for _, eps := range []float64{1e-7, 1e-5, 1e-3} {
				for trial := 0; trial < 6*dr; trial++ {
					q := make(vecmath.Point, dr)
					for i := range q {
						q[i] = v[i] + eps*(rng.Float64()*2-1)
					}
					consider(q)
				}
			}
			return nil
		}
		for i := start; i < len(planes); i++ {
			idx[k] = i
			if err := rec(i+1, k+1); err != nil {
				return err
			}
		}
		return nil
	}
	if dr >= 1 {
		if err := rec(0, 0); err != nil {
			return BruteResult{}, err
		}
	}

	// Random interior samples for extra coverage.
	for i := 0; i < extraSamples; i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return BruteResult{}, err
			}
		}
		q := randomSimplexInterior(rng, dr)
		consider(q)
	}

	if best > len(incomparable) {
		// Degenerate: no valid sample found (should not happen; fall back
		// to the uniform vector).
		if o, ok := orderAt(uniformReduced(dr)); ok {
			best = o
		} else {
			best = 0
		}
	}
	return BruteResult{
		KStar:      int(dominators) + best + 1,
		MinOrder:   best,
		Dominators: dominators,
	}, nil
}

// plane is a hyperplane a·x = b in the reduced query space.
type plane struct {
	a vecmath.Point
	b float64
}

// solveSquare solves the dr x dr system formed by the selected planes.
func solveSquare(planes []plane, idx []int, dr int) (vecmath.Point, bool) {
	m := make([][]float64, dr)
	for i := 0; i < dr; i++ {
		row := make([]float64, dr+1)
		copy(row, planes[idx[i]].a)
		row[dr] = planes[idx[i]].b
		m[i] = row
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < dr; col++ {
		piv := -1
		bestAbs := 1e-12
		for r := col; r < dr; r++ {
			if a := math.Abs(m[r][col]); a > bestAbs {
				bestAbs = a
				piv = r
			}
		}
		if piv < 0 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for j := col; j <= dr; j++ {
			m[col][j] *= inv
		}
		for r := 0; r < dr; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := col; j <= dr; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	v := make(vecmath.Point, dr)
	for i := 0; i < dr; i++ {
		v[i] = m[i][dr]
	}
	return v, true
}

// randomSimplexInterior draws a point uniformly from the open simplex
// {q_i > 0, Σ q_i < 1} via exponential spacings.
func randomSimplexInterior(rng *rand.Rand, dr int) vecmath.Point {
	w := make([]float64, dr+1)
	var sum float64
	for i := range w {
		w[i] = rng.ExpFloat64() + 1e-12
		sum += w[i]
	}
	q := make(vecmath.Point, dr)
	for i := 0; i < dr; i++ {
		q[i] = w[i] / sum
	}
	return q
}

func uniformReduced(dr int) vecmath.Point {
	q := make(vecmath.Point, dr)
	for i := range q {
		q[i] = 1 / float64(dr+1)
	}
	return q
}
