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
// per-bucket counts that bound which of them the answer can need. start
// has one entry per bucket and one past the last, drops and ends one per
// bucket; together they take about a byte and a half per crossing, beside
// the eight of the lists and of scratch, the sort's other buffer. Every
// field holds plain numbers, so a released state pins nothing and each
// buffer is simply resized by the next query.
type fcaState struct {
	up, down, scratch []float64
	// start[j] is p's order just before bucket j (after every crossing of
	// the buckets below it); drops[j] counts bucket j's down crossings.
	start, drops []int
	// ends[j] is where bucket j ends in the list keep is sorting, or −1
	// when the bucket is pruned; pruned says some bucket is.
	ends   []int
	pruned bool
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

	above0, nInc, err := f.scan(ctx, rd, p, in.FocalID)
	if err != nil {
		return nil, err
	}
	res.Stats.IncomparableAccessed = nInc
	f.prune(above0, in.Tau)

	// The intervals of (0,1) lie between consecutive distinct crossing
	// values. The first sweep finds the least order among them; the second
	// keeps those within τ of it.
	minOrder := above0
	f.sweep(above0, func(_, _ float64, order int) { minOrder = min(minOrder, order) })
	var regions []Region
	f.sweep(above0, func(lo, hi float64, order int) {
		if err != nil || order > minOrder+in.Tau {
			return
		}
		reg := Region{
			Box:     geom.MustRect(vecmath.Point{lo}, vecmath.Point{hi}),
			Witness: vecmath.Point{(lo + hi) / 2},
			Order:   order,
		}
		if in.CollectRecordIDs {
			if reg.OutrankIDs, err = outranksAt2D(ctx, &in, rd, reg.Witness[0]); err != nil {
				return
			}
		}
		regions = append(regions, reg)
	})
	if err != nil {
		return nil, err
	}
	finishResult(res, regions, minOrder, in.Tau, dom)
	res.Stats.Dominators = dom
	res.Stats.Iterations = 1
	res.Stats.IO = tr.Reads()
	res.Stats.CPUTime = timeNow().Sub(start)
	return res, nil
}

// scan is FCA's pass over the records incomparable to p: scanIncomparable
// for d = 2, with both of its tests inlined and each leaf's records read
// from the node's coordinate slab. It skips the subtrees and visits the
// records scanIncomparable does, in the same order, so it reads the same
// pages. It returns above0, the number of incomparable records scoring
// above p as q1 -> 0+, and nInc, the number of them all, and leaves in up
// and down the crossings inside (0,1) of the records that rise above p
// and drop below it there: each moves p's order by one.
func (f *fcaState) scan(ctx context.Context, rd rstar.Reader, p vecmath.Point, focalID int64) (above0 int, nInc int64, err error) {
	p0, p1 := p[0], p[1]
	up, down := f.up[:0], f.down[:0]
	err = rd.Descend(ctx, func(n *rstar.Node, i int) bool {
		// Skip a pure dominee or pure dominator subtree.
		lo, hi := n.Lo(i), n.Hi(i)
		return (p0 < hi[0] || p1 < hi[1]) && (lo[0] < p0 || lo[1] < p1)
	}, func(n *rstar.Node) error {
		ids := n.RecordIDs()
		xy := n.Coords()[:2*len(ids)]
		for i, id := range ids {
			r0, r1 := xy[2*i], xy[2*i+1]
			// Incomparable: below p on one axis and above it on the other.
			if !(r0 < p0 || r1 < p1) || !(r0 > p0 || r1 > p1) || id == focalID {
				continue
			}
			nInc++
			// score(r) - score(p) at q1 is (r2-p2) + a*q1 with a the slope gap.
			a := (r0 - r1) - (p0 - p1)
			c := r1 - p1
			isAbove0 := c > 0 || (c == 0 && a > 0)
			if isAbove0 {
				above0++
			}
			if a == 0 {
				// Parallel score lines never reorder; for incomparable
				// records this cannot happen (it would imply dominance),
				// but guard for degenerate inputs.
				continue
			}
			t := -c / a
			if t <= 0 || t >= 1 {
				continue // reordering outside the permissible domain
			}
			if isAbove0 {
				down = append(down, t)
			} else {
				up = append(up, t)
			}
		}
		return nil
	})
	f.up, f.down = up, down
	return above0, nInc, err
}

// bucket is the bucket of crossing value t: buckets split (0,1) into
// len(f.drops) equal widths. It is monotone in t, so tied values share a
// bucket and each bucket's values are a run of the sorted crossings.
func (f *fcaState) bucket(t float64) int {
	nb := len(f.drops)
	return min(int(t*float64(nb)), nb-1)
}

// prune drops from up and down every crossing of a bucket in which no
// interval can be within tau of the least order, so only the rest are
// sorted and swept: the count bound of the paper's AA (Section 6) applied
// to FCA. With one bucket per 16 crossings it counts each bucket's rises
// and drops, and from them derives start, the exact order before each
// bucket, and least, the least order at any bucket's end. least is the
// order of a real interval, so it is at least the least order k. No
// interval that begins inside bucket j has an order below
// start[j] − drops[j]; when that exceeds least + tau ≥ k + tau, the bucket
// is pruned.
//
// The sweep over what is left is still exact. An interval of order at most
// least + tau is bounded by crossings of kept buckets only: the bucket it
// begins in has a bound at most its order, and if it ends in a later
// bucket b, its order is start[b], which is at least b's bound. Where two
// consecutive kept crossings straddle a pruned bucket, the sweep sees one
// interval between them, but the order it carries there is that of the
// real interval entering the first pruned bucket, which exceeds
// least + tau, so it is neither the least order nor emitted.
func (f *fcaState) prune(above0, tau int) {
	nb := max(1, (len(f.up)+len(f.down))/16)
	f.start = slices.Grow(f.start[:0], nb+1)[:nb+1]
	f.drops = slices.Grow(f.drops[:0], nb)[:nb]
	clear(f.start)
	clear(f.drops)
	for _, t := range f.up {
		f.start[f.bucket(t)+1]++
	}
	for _, t := range f.down {
		b := f.bucket(t)
		f.start[b+1]--
		f.drops[b]++
	}
	f.start[0] = above0
	least := math.MaxInt
	for j := 1; j <= nb; j++ {
		f.start[j] += f.start[j-1]
		least = min(least, f.start[j])
	}
	limit := least + tau
	f.up = f.keep(f.up, limit, true)
	f.down = f.keep(f.down, limit, false)
}

// keep returns the crossings of v, up or down, that lie in buckets whose
// order bound is within limit, sorted; v becomes the next scratch. With
// the counts prune took, it scatters them into scratch in bucket order,
// then sorts each bucket, about 16 values, on its own.
func (f *fcaState) keep(v []float64, limit int, up bool) []float64 {
	nb := len(f.drops)
	f.ends = slices.Grow(f.ends[:0], nb)[:nb]
	n := 0
	f.pruned = false
	for j := range nb {
		f.ends[j] = -1
		if f.start[j]-f.drops[j] > limit {
			f.pruned = true
			continue
		}
		f.ends[j] = n // where bucket j begins, until the scatter
		if n += f.drops[j]; up {
			n += f.start[j+1] - f.start[j] // the rises less the drops
		}
	}
	out := slices.Grow(f.scratch[:0], n)[:n]
	for _, t := range v {
		b := f.bucket(t)
		if e := f.ends[b]; e >= 0 {
			out[e] = t
			f.ends[b] = e + 1
		}
	}
	lo := 0
	for _, hi := range f.ends {
		if hi >= 0 {
			sortSmall(out[lo:hi])
			lo = hi
		}
	}
	f.scratch = v[:0]
	return out
}

// sortSmall sorts v, by insertion when it is as short as a bucket
// usually is.
func sortSmall(v []float64) {
	if len(v) > 32 {
		slices.Sort(v)
		return
	}
	for i := 1; i < len(v); i++ {
		t, j := v[i], i
		for ; j > 0 && t < v[j-1]; j-- {
			v[j] = v[j-1]
		}
		v[j] = t
	}
}

// sweep calls visit with each interval between consecutive distinct
// values of the sorted, pruned crossings, in increasing q1, and p's order
// over it. All crossings at one value apply together, so the order among
// equal values cannot matter. On entering a bucket the order restarts
// from start, which skips the crossings of the pruned buckets before it;
// with none pruned, there is nothing to skip.
func (f *fcaState) sweep(above0 int, visit func(lo, hi float64, order int)) {
	up, down := f.up, f.down
	order, lo, cur := above0, 0.0, -1
	for {
		hi := 1.0
		if len(up) > 0 {
			hi = up[0]
		}
		if len(down) > 0 && down[0] < hi {
			hi = down[0]
		}
		visit(lo, hi, order)
		if hi == 1 {
			return
		}
		if f.pruned {
			if b := f.bucket(hi); b != cur {
				order, cur = f.start[b], b
			}
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
