package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// stripVolatileStats zeroes the Stats fields that the shared-prefix
// contract allows to differ from independent execution (documented on
// GroupPrefix): IO and IncomparableAccessed reflect how the incomparable
// set was obtained, and CPUTime is wall time. Everything else — the answer
// and the work counters — must be bit-identical.
func stripVolatileStats(res *Result) *Result {
	cp := *res
	cp.Stats.CPUTime = 0
	cp.Stats.IO = 0
	cp.Stats.IncomparableAccessed = 0
	return &cp
}

// nearestGroup returns the indexes of the m points closest (L2) to points[0].
func nearestGroup(points []vecmath.Point, m int) []int {
	type dp struct {
		d float64
		i int
	}
	ds := make([]dp, len(points))
	for i, p := range points {
		var d float64
		for k, v := range p {
			dv := v - points[0][k]
			d += dv * dv
		}
		ds[i] = dp{d: d, i: i}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].i < ds[j].i
	})
	out := make([]int, 0, m)
	for _, e := range ds[:m] {
		out = append(out, e.i)
	}
	return out
}

// TestSharedPrefixBitIdentical is the tentpole contract: every algorithm,
// fed a FocalPrefix view of a group prefix, must return exactly the
// answer it returns when scanning the tree itself — for tight clusters,
// for the degenerate whole-dataset group, at τ = 0 and τ > 0, with
// OutrankIDs collected. Run under -race in CI, this also exercises the
// prefix's read-only sharing of record points across members.
func TestSharedPrefixBitIdentical(t *testing.T) {
	type alg struct {
		name string
		run  func(Input) (*Result, error)
		dim  int // 0 = any
	}
	algs := []alg{
		{"BA", BA, 0},
		{"AA", AA, 0},
		{"FCA", FCA, 2},
		{"AA2D", AA2D, 2},
	}
	for _, dist := range []dataset.Distribution{dataset.IND, dataset.COR, dataset.ANTI} {
		for _, dim := range []int{2, 3} {
			points := dataset.Generate(dist, 40, dim, int64(31*dim)+int64(dist))
			tree := buildTree(t, points)
			groups := [][]int{
				nearestGroup(points, 2),
				nearestGroup(points, 6),
				nearestGroup(points, len(points)), // worst case: one group for everything
			}
			for _, tau := range []int{0, 2} {
				for gi, group := range groups {
					focals := make([]vecmath.Point, len(group))
					for k, idx := range group {
						focals[k] = points[idx]
					}
					prefix, err := BuildGroupPrefix(context.Background(), tree, focals)
					if err != nil {
						t.Fatalf("BuildGroupPrefix: %v", err)
					}
					for k, idx := range group {
						// Sample the larger groups: every member of a small
						// group, a spread of members otherwise.
						if len(group) > 8 && k%7 != 0 {
							continue
						}
						for _, a := range algs {
							if a.dim != 0 && a.dim != dim {
								continue
							}
							name := fmt.Sprintf("%v/d%d/tau%d/group%d/focal%d/%s", dist, dim, tau, gi, idx, a.name)
							base := Input{
								Tree:             tree,
								Focal:            points[idx],
								FocalID:          int64(idx),
								Tau:              tau,
								CollectRecordIDs: true,
							}
							indep, err := a.run(base)
							if err != nil {
								t.Fatalf("%s independent: %v", name, err)
							}
							shared := base
							shared.Shared = prefix.Focal(k)
							got, err := a.run(shared)
							if err != nil {
								t.Fatalf("%s shared: %v", name, err)
							}
							if !reflect.DeepEqual(stripVolatileStats(indep), stripVolatileStats(got)) {
								t.Errorf("%s: shared result differs from independent\nindep: %+v\nshared: %+v",
									name, stripVolatileStats(indep), stripVolatileStats(got))
							}
						}
					}
				}
			}
		}
	}
}

// TestGroupPrefixCountsMatch checks the prefix's two products directly
// against the per-query primitives: Dominators() vs CountDominators and
// the merged incomparable ID set vs scanIncomparable — including groups
// with duplicated focals (so some member equals the group's upper corner
// ghi, exercising the equality correction).
func TestGroupPrefixCountsMatch(t *testing.T) {
	for _, dim := range []int{2, 3, 4} {
		points := dataset.Generate(dataset.IND, 60, dim, int64(7*dim))
		// Duplicate a point so exact coordinate ties exist in the dataset.
		points = append(points, points[3].Clone())
		tree := buildTree(t, points)
		group := nearestGroup(points, 5)
		// Duplicate a member: two identical focals must get identical views.
		group = append(group, group[0])
		focals := make([]vecmath.Point, len(group))
		for k, idx := range group {
			focals[k] = points[idx]
		}
		prefix, err := BuildGroupPrefix(context.Background(), tree, focals)
		if err != nil {
			t.Fatalf("BuildGroupPrefix: %v", err)
		}
		rd := tree.Reader(nil)
		for k, idx := range group {
			fp := prefix.Focal(k)
			wantDom, err := CountDominators(rd, points[idx])
			if err != nil {
				t.Fatalf("CountDominators: %v", err)
			}
			if got := fp.Dominators(); got != wantDom {
				t.Errorf("d%d focal %d: Dominators() = %d, CountDominators = %d", dim, idx, got, wantDom)
			}
			var wantIDs []int64
			err = scanIncomparable(context.Background(), rd, points[idx], int64(idx), func(_ vecmath.Point, id int64) error {
				wantIDs = append(wantIDs, id)
				return nil
			})
			if err != nil {
				t.Fatalf("scanIncomparable: %v", err)
			}
			sort.Slice(wantIDs, func(i, j int) bool { return wantIDs[i] < wantIDs[j] })
			var gotIDs []int64
			prev := int64(-1)
			_ = fp.ForEachIncomparable(func(pt vecmath.Point, id int64) error {
				if id <= prev {
					t.Fatalf("d%d focal %d: ForEachIncomparable out of order (%d after %d)", dim, idx, id, prev)
				}
				prev = id
				if vecmath.Compare(pt, points[idx]) != vecmath.Incomparable {
					t.Fatalf("d%d focal %d: record %d not incomparable", dim, idx, id)
				}
				gotIDs = append(gotIDs, id)
				return nil
			})
			if !reflect.DeepEqual(wantIDs, gotIDs) {
				t.Errorf("d%d focal %d: incomparable IDs differ\nwant %v\ngot  %v", dim, idx, wantIDs, gotIDs)
			}
		}
	}
}

// TestGroupPrefixDominatorsWithTies pins down the prefix's dominator
// count where it is delicate: with exact coordinate ties in the data and a
// duplicated member sitting on the group's upper corner, Dominators()
// still matches CountDominators exactly, and every algorithm remains
// bit-identical to independent execution.
func TestGroupPrefixDominatorsWithTies(t *testing.T) {
	for _, dim := range []int{2, 3} {
		points := dataset.Generate(dataset.ANTI, 60, dim, int64(11*dim))
		points = append(points, points[5].Clone()) // exact ties exist
		tree := buildTree(t, points)
		group := nearestGroup(points, 6)
		group = append(group, group[0]) // duplicated member == ghi candidate
		focals := make([]vecmath.Point, len(group))
		for k, idx := range group {
			focals[k] = points[idx]
		}
		prefix, err := BuildGroupPrefix(context.Background(), tree, focals)
		if err != nil {
			t.Fatalf("BuildGroupPrefix: %v", err)
		}
		rd := tree.Reader(nil)
		for k, idx := range group {
			fp := prefix.Focal(k)
			wantDom, err := CountDominators(rd, points[idx])
			if err != nil {
				t.Fatalf("CountDominators: %v", err)
			}
			if got := fp.Dominators(); got != wantDom {
				t.Errorf("d%d focal %d: Dominators() = %d, CountDominators = %d", dim, idx, got, wantDom)
			}
			algs := []struct {
				name string
				run  func(Input) (*Result, error)
			}{{"AA", AA}, {"BA", BA}}
			if dim == 2 {
				algs = append(algs, struct {
					name string
					run  func(Input) (*Result, error)
				}{"AA2D", AA2D})
			}
			for _, a := range algs {
				base := Input{Tree: tree, Focal: points[idx], FocalID: int64(idx), Tau: 1, CollectRecordIDs: true}
				indep, err := a.run(base)
				if err != nil {
					t.Fatalf("%s independent: %v", a.name, err)
				}
				shared := base
				shared.Shared = fp
				got, err := a.run(shared)
				if err != nil {
					t.Fatalf("%s shared: %v", a.name, err)
				}
				if !reflect.DeepEqual(stripVolatileStats(indep), stripVolatileStats(got)) {
					t.Errorf("d%d focal %d %s: shared result differs from independent", dim, idx, a.name)
				}
			}
		}
	}
}

// TestGroupPrefixWhatIfFocals covers group members that are not dataset
// records (focalID < 0): a prefix built from arbitrary interior points
// must still reproduce independent execution exactly.
func TestGroupPrefixWhatIfFocals(t *testing.T) {
	points := dataset.Generate(dataset.IND, 50, 3, 17)
	tree := buildTree(t, points)
	focals := []vecmath.Point{
		{0.4, 0.5, 0.6},
		{0.42, 0.48, 0.61},
		{0.38, 0.52, 0.59},
	}
	prefix, err := BuildGroupPrefix(context.Background(), tree, focals)
	if err != nil {
		t.Fatalf("BuildGroupPrefix: %v", err)
	}
	for k, p := range focals {
		base := Input{Tree: tree, Focal: p, FocalID: -1, Tau: 1, CollectRecordIDs: true}
		indep, err := AA(base)
		if err != nil {
			t.Fatalf("AA independent: %v", err)
		}
		shared := base
		shared.Shared = prefix.Focal(k)
		got, err := AA(shared)
		if err != nil {
			t.Fatalf("AA shared: %v", err)
		}
		if !reflect.DeepEqual(stripVolatileStats(indep), stripVolatileStats(got)) {
			t.Errorf("what-if focal %d: shared AA result differs from independent", k)
		}
	}
}

// TestBuildGroupPrefixErrors covers the structural guards.
func TestBuildGroupPrefixErrors(t *testing.T) {
	points := dataset.Generate(dataset.IND, 20, 3, 3)
	tree := buildTree(t, points)
	if _, err := BuildGroupPrefix(context.Background(), nil, []vecmath.Point{points[0]}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := BuildGroupPrefix(context.Background(), tree, nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := BuildGroupPrefix(context.Background(), tree, []vecmath.Point{{0.1, 0.2}}); err == nil {
		t.Error("dim mismatch accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildGroupPrefix(ctx, tree, []vecmath.Point{points[0]}); err == nil {
		t.Error("cancelled context not honoured")
	}
	// A prefix view fed to a query with a different focal must be rejected.
	prefix, err := BuildGroupPrefix(context.Background(), tree, []vecmath.Point{points[0], points[1]})
	if err != nil {
		t.Fatalf("BuildGroupPrefix: %v", err)
	}
	in := Input{Tree: tree, Focal: points[2], FocalID: 2, Shared: prefix.Focal(0)}
	if _, err := BA(in); err == nil {
		t.Error("focal/prefix mismatch accepted")
	}
}
