package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// Metamorphic relations: transformations whose effect on the answer is
// known without an oracle, so they run at sizes the exact reference cannot
// reach. Each relation must keep k* and the set of optimal sign vectors,
// evaluated exactly at the least-order regions' witnesses.

// metaAnswer is the part of an answer a relation constrains.
type metaAnswer struct {
	kstar      int
	dominators int64
	signs      string // the optimal sign vectors, sorted and joined
}

func (a metaAnswer) cells() int { return strings.Count(a.signs, ",") + 1 }

// metaRun answers the query for points[focalIdx] and evaluates every
// least-order witness exactly. A query that fails with ErrLeafTruncated is
// logged and reported as not ok: it answers nothing a relation could
// compare.
func metaRun(t *testing.T, alg Algorithm, points []vecmath.Point, focalIdx int, quad [2]int) (metaAnswer, bool) {
	t.Helper()
	res, err := alg.Run(Input{
		Tree: buildTree(t, points), Focal: points[focalIdx], FocalID: int64(focalIdx),
		QuadMaxPartial: quad[0], QuadMaxDepth: quad[1],
	})
	if errors.Is(err, ErrLeafTruncated) {
		t.Logf("%s with quad options %v: %v; relation unchecked", alg.Name(), quad, err)
		return metaAnswer{}, false
	}
	if err != nil {
		t.Fatalf("%s with quad options %v: %v", alg.Name(), quad, err)
	}
	ev := exactClassify(points, points[focalIdx], focalIdx)
	set := map[string]bool{}
	for i, reg := range res.Regions {
		if reg.Order != res.MinOrder {
			continue
		}
		e := ev.eval(reg.Witness)
		if !e.InDomain || e.Tied > 0 || e.Order != reg.Order {
			t.Errorf("%s: region %d witness %v: exact order %d (ties %d, in domain %v), claimed %d",
				alg.Name(), i, reg.Witness, e.Order, e.Tied, e.InDomain, reg.Order)
		}
		set[e.Signs] = true
	}
	signs := make([]string, 0, len(set))
	for s := range set {
		signs = append(signs, s)
	}
	sort.Strings(signs)
	return metaAnswer{kstar: res.KStar, dominators: res.Dominators, signs: strings.Join(signs, ",")}, true
}

// mapPoints copies points through f.
func mapPoints(points []vecmath.Point, f func(vecmath.Point) vecmath.Point) []vecmath.Point {
	out := make([]vecmath.Point, len(points))
	for i, p := range points {
		out[i] = f(p.Clone())
	}
	return out
}

// metaFocal picks the record whose attribute sum ranks at n/10 from the
// top: strong enough to answer quickly, weak enough to have a non-trivial
// arrangement.
func metaFocal(points []vecmath.Point) int {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return points[idx[a]].Sum() > points[idx[b]].Sum() })
	return idx[len(idx)/10]
}

func TestMetamorphicRelations(t *testing.T) {
	for _, tc := range []struct {
		dist dataset.Distribution
		n, d int
		algs []Algorithm
	}{
		{dataset.IND, 300, 3, []Algorithm{StrategyBA, StrategyAA}},
		{dataset.ANTI, 300, 3, []Algorithm{StrategyBA, StrategyAA}},
		{dataset.IND, 200, 4, []Algorithm{StrategyBA, StrategyAA}},
		{dataset.IND, 300, 2, []Algorithm{StrategyFCA, StrategyAA2D}},
		{dataset.ANTI, 300, 2, []Algorithm{StrategyFCA, StrategyAA2D}},
	} {
		points := dataset.Generate(tc.dist, tc.n, tc.d, 11)
		focalIdx := metaFocal(points)
		focal := points[focalIdx]
		d := tc.d
		type relation struct {
			name   string
			points []vecmath.Point
			quad   [2]int
		}
		relations := []relation{
			{name: "scale attribute 0 by 2^-1", points: mapPoints(points, func(p vecmath.Point) vecmath.Point {
				p[0] = math.Ldexp(p[0], -1)
				return p
			})},
			{name: "scale the last attribute by 2^3", points: mapPoints(points, func(p vecmath.Point) vecmath.Point {
				p[d-1] = math.Ldexp(p[d-1], 3)
				return p
			})},
			{name: "rotate the attributes", points: mapPoints(points, func(p vecmath.Point) vecmath.Point {
				return append(p[1:], p[0])
			})},
			{name: "insert a dominee", points: append(points[:tc.n:tc.n], mapPoints([]vecmath.Point{focal}, func(p vecmath.Point) vecmath.Point {
				for i := range p {
					p[i] = math.Ldexp(p[i], -1)
				}
				return p
			})...)},
		}
		for _, quad := range [][2]int{{4, 0}, {12, 0}, {32, 0}, {0, 3}} {
			relations = append(relations, relation{name: fmt.Sprintf("quad options %v", quad), points: points, quad: quad})
		}
		dominator := append(points[:tc.n:tc.n], mapPoints([]vecmath.Point{focal}, func(p vecmath.Point) vecmath.Point {
			for i := range p {
				p[i]++
			}
			return p
		})...)

		for _, alg := range tc.algs {
			t.Run(fmt.Sprintf("%v/n=%d/d=%d/%s", tc.dist, tc.n, d, alg.Name()), func(t *testing.T) {
				base, ok := metaRun(t, alg, points, focalIdx, [2]int{})
				if !ok {
					t.Fatal("the base query must answer")
				}
				for _, r := range relations {
					if got, ok := metaRun(t, alg, r.points, focalIdx, r.quad); ok && got != base {
						t.Errorf("%s: k* %d with %d optimal cells; base k* %d with %d (sign vectors equal: %v)",
							r.name, got.kstar, got.cells(), base.kstar, base.cells(), got.signs == base.signs)
					}
				}
				got, ok := metaRun(t, alg, dominator, focalIdx, [2]int{})
				want := metaAnswer{kstar: base.kstar + 1, dominators: base.dominators + 1, signs: base.signs}
				if ok && got != want {
					t.Errorf("insert a dominator: k* %d, dominators %d; want %d, %d (sign vectors equal: %v)",
						got.kstar, got.dominators, want.kstar, want.dominators, got.signs == want.signs)
				}
			})
		}
	}
}
