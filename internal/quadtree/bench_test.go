package quadtree

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/vecmath"
)

// firstSkyline returns the half-spaces of the skyline of the records
// incomparable to focal, what AA inserts before its first scan.
func firstSkyline(points []vecmath.Point, focal int) []HalfspaceRef {
	p := points[focal]
	var inc []vecmath.Point
	for i, r := range points {
		if i != focal && vecmath.Compare(r, p) == vecmath.Incomparable {
			inc = append(inc, r)
		}
	}
	var refs []HalfspaceRef
	for i, r := range inc {
		dominated := false
		for j, s := range inc {
			if j != i && vecmath.Compare(s, r) == vecmath.Dominates {
				dominated = true
				break
			}
		}
		if !dominated {
			refs = append(refs, HalfspaceRef{H: geom.RecordHalfspace(r, p), RecordID: int64(i), Augmented: true})
		}
	}
	return refs
}

// BenchmarkBuildAndScan threads the first skyline of a d = 4 query (IND,
// n = 1500, the dataset of the heavy_d4 workload, focal 1228: 112
// half-spaces at dr = 3) into a warm tree with no split bound, then scans
// it through a Frontier from the first leaf to ten past its |F|, about the
// part of the tree AA's first iteration reaches. nodes/op is the arena's
// node count after the scan, leaves/op the leaves the scan hands out.
func BenchmarkBuildAndScan(b *testing.B) {
	refs := firstSkyline(dataset.Generate(dataset.IND, 1500, 4, 20150831), 1228)
	var (
		t             Tree
		f             Frontier
		nodes, leaves int
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := t.Reset(3, Options{}); err != nil {
			b.Fatal(err)
		}
		for j := range refs {
			t.Insert(&refs[j])
		}
		f.Reset(&t)
		first, ok := f.Next(-1)
		for limit := first.FullCount() + 10; ok; _, ok = f.Next(limit) {
			leaves++
		}
		nodes += len(t.nodes)
	}
	b.ReportMetric(float64(len(refs)), "halfspaces")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(leaves)/float64(b.N), "leaves/op")
}
