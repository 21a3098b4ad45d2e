package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// FCA is the first-cut algorithm for d = 2 (paper Section 4). The score of
// every record is a line in the (q1, score) plane; each intersection of an
// incomparable record's line with the focal record's line flips their
// relative order. Sweeping the intersections in increasing q1 yields the
// order of p in every interval of the (1-dimensional) reduced query space.
//
// Like the paper's enhanced FCA, dominators and dominees are pruned via the
// R*-tree before the sweep.
func FCA(in Input) (*Result, error) { return StrategyFCA.Run(in) }

// fcaState is FCA's share of the pooled execState: the crossing values of
// the records that rise above p (up) and drop below it (down), and the
// radix sort's scratch. Its lists hold plain floats, so a released state
// pins nothing and every buffer is simply truncated by the next query.
type fcaState struct {
	up, down, scratch []float64
}

func fcaRun(in Input) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Tree.Dim() != 2 {
		return nil, fmt.Errorf("core: FCA requires d = 2, got %d", in.Tree.Dim())
	}
	start := timeNow()
	ctx, rd, tr := in.begin()
	res := &Result{}
	p := in.Focal
	st := acquireState()
	defer releaseState(st)
	f := &st.fca

	dom, err := CountDominators(rd, p)
	if err != nil {
		return nil, err
	}

	// above0 counts incomparable records scoring above p as q1 -> 0+; every
	// crossing inside (0,1) moves p's order by one: down as a record above
	// p drops below it, up as one below rises above.
	f.up, f.down = f.up[:0], f.down[:0]
	above0 := 0
	var nInc int64
	err = scanIncomparable(ctx, rd, p, in.FocalID, func(r vecmath.Point, _ int64) error {
		nInc++
		// score(r) - score(p) at q1 is (r2-p2) + a*q1 with a the slope gap.
		a := (r[0] - r[1]) - (p[0] - p[1])
		c := r[1] - p[1]
		isAbove0 := c > 0 || (c == 0 && a > 0)
		if isAbove0 {
			above0++
		}
		if a == 0 {
			// Parallel score lines never reorder; for incomparable records
			// this cannot happen (it would imply dominance), but guard for
			// degenerate inputs.
			return nil
		}
		t := -c / a
		if t <= 0 || t >= 1 {
			return nil // reordering outside the permissible domain
		}
		if isAbove0 {
			f.down = append(f.down, t)
		} else {
			f.up = append(f.up, t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats.IncomparableAccessed = nInc
	f.scratch = radixSortFloats(f.up, f.scratch)
	f.scratch = radixSortFloats(f.down, f.scratch)

	// The intervals of (0,1) lie between consecutive distinct crossing
	// values. The first sweep finds the least order among them; the second
	// keeps those within τ of it, applying all crossings at one value
	// together, so the order among equal values cannot matter.
	minOrder := f.minOrder(above0)
	var regions []Region
	up, down := f.up, f.down
	order, lo := above0, 0.0
	for {
		hi := 1.0
		if len(up) > 0 {
			hi = up[0]
		}
		if len(down) > 0 && down[0] < hi {
			hi = down[0]
		}
		if order <= minOrder+in.Tau {
			reg := Region{
				Box:     geom.MustRect(vecmath.Point{lo}, vecmath.Point{hi}),
				Witness: vecmath.Point{(lo + hi) / 2},
				Order:   order,
			}
			if in.CollectRecordIDs {
				reg.OutrankIDs, err = outranksAt2D(ctx, &in, rd, reg.Witness[0])
				if err != nil {
					return nil, err
				}
			}
			regions = append(regions, reg)
		}
		if len(up) == 0 && len(down) == 0 {
			break
		}
		for len(up) > 0 && up[0] == hi {
			order++
			up = up[1:]
		}
		for len(down) > 0 && down[0] == hi {
			order--
			down = down[1:]
		}
		lo = hi
	}
	finishResult(res, regions, minOrder, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.Iterations = 1
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}

// minOrder is the least order of p over the intervals between the sorted
// crossings, starting from above0. It merges the lists one crossing at a
// time and takes the rises at a tied value first. Then every order reached
// by a drop is at least that of the interval after the tie, the tie's last
// drop reaches exactly that, and a rise never lowers the least, so the
// least order reached is the least interval order.
func (f *fcaState) minOrder(above0 int) int {
	up, down := f.up, f.down
	order, least := above0, above0
	for len(down) > 0 {
		if len(up) > 0 && up[0] <= down[0] {
			order++
			up = up[1:]
			continue
		}
		order--
		down = down[1:]
		least = min(least, order)
	}
	return least
}

// radixSortCutoff is the length below which radixSortFloats leaves the
// work to slices.Sort: the six 2 048-bucket histograms cost a fixed few
// microseconds, which a comparison sort of uniform values in (0,1) beats
// up to about 768 of them (11–12 µs against 16–20 µs at 512; 51 against
// 25–34 µs at 1 024, on a 2-core KVM guest).
const radixSortCutoff = 768

const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = (64 + radixBits - 1) / radixBits
)

// radixSortFloats sorts v ascending in place and returns the scratch
// buffer, grown as the sort needed. Every value must be finite and
// non-negative (FCA's crossings lie in (0,1)): for those, math.Float64bits
// orders as the value does, so an LSD radix sort on the bits, 11 at a
// time, sorts the floats. A pass whose digit is the same for every value
// is skipped.
func radixSortFloats(v, scratch []float64) []float64 {
	if len(v) < radixSortCutoff {
		slices.Sort(v)
		return scratch
	}
	var counts [radixPasses][radixBuckets]uint32
	for _, x := range v {
		b := math.Float64bits(x)
		for pass := range counts {
			counts[pass][(b>>(pass*radixBits))&(radixBuckets-1)]++
		}
	}
	scratch = slices.Grow(scratch[:0], len(v))[:len(v)]
	src, dst := v, scratch
	first := math.Float64bits(v[0])
	for pass := range counts {
		shift := pass * radixBits
		c := &counts[pass]
		if c[(first>>shift)&(radixBuckets-1)] == uint32(len(v)) {
			continue
		}
		var sum uint32
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, x := range src {
			d := (math.Float64bits(x) >> shift) & (radixBuckets - 1)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &v[0] {
		copy(v, src)
	}
	return scratch
}

// outranksAt2D recomputes the set of incomparable records outranking p at
// a specific q1 (only used when record IDs are requested; it re-scans and
// therefore costs extra I/O, which is attributed to the query honestly).
// IDs are returned in ascending order — the scan visits them in R*-tree
// traversal order, which depends on the tree's shape, and the answer must
// not.
func outranksAt2D(ctx context.Context, in *Input, rd rstar.Reader, q1 float64) ([]int64, error) {
	var ids []int64
	q := vecmath.Point{q1, 1 - q1}
	ps := in.Focal.Dot(q)
	err := scanIncomparable(ctx, rd, in.Focal, in.FocalID, func(r vecmath.Point, id int64) error {
		if r.Dot(q) > ps {
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(ids)
	return ids, nil
}
