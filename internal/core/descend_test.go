package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// refScanIncompNode is scanIncomparable as it was before its tree scan
// became an rstar.Reader.Descend visitor, kept as the reference it must
// match read for read. refCountDominators is CountDominators as two
// range counts over bounded windows.
func refScanIncompNode(ctx context.Context, rd rstar.Reader, id pager.PageID, p vecmath.Point, focalID int64, fn func(pt vecmath.Point, id int64) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, err := rd.ReadNodeInto(id, nil)
	if err != nil {
		return err
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if n.Leaf() {
			if e.RecordID == focalID {
				continue
			}
			if vecmath.Compare(e.Point(), p) == vecmath.Incomparable {
				if err := fn(e.Point().Clone(), e.RecordID); err != nil {
					return err
				}
			}
			continue
		}
		if allGeq(p, e.Rect.Hi) || allGeq(e.Rect.Lo, p) {
			continue
		}
		if err := refScanIncompNode(ctx, rd, e.Child, p, focalID, fn); err != nil {
			return err
		}
	}
	return nil
}

func refCountDominators(rd rstar.Reader, p vecmath.Point) (int64, error) {
	hi := make(vecmath.Point, len(p))
	for i := range hi {
		hi[i] = 1e308
	}
	geq, err := rd.RangeCount(geom.Rect{Lo: p.Clone(), Hi: hi})
	if err != nil {
		return 0, err
	}
	eq, err := rd.RangeCount(geom.PointRect(p))
	if err != nil {
		return 0, err
	}
	return geq - eq, nil
}

// smallPageTree indexes points with few entries a page, so that a thousand
// records make a tree three or four levels deep.
func smallPageTree(t testing.TB, points []vecmath.Point) *rstar.Tree {
	t.Helper()
	tree, err := rstar.New(pager.NewStore(512), len(points[0]), rstar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(points, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// scanned is one run of an incomparable scan: the records it visited, in
// order, the error it ended with and the pages it read.
type scanned struct {
	ids   []int64
	pts   []vecmath.Point
	err   error
	reads int64
}

// scanWith runs scan with a callback that clones each record and, after
// stopAt records (0: never), either cancels ctx or fails with errStopScan.
func scanWith(stopAt int, cancel bool, scan func(ctx context.Context, rd rstar.Reader, fn func(vecmath.Point, int64) error) error, tree *rstar.Tree) scanned {
	var s scanned
	var tr pager.Tracker
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	s.err = scan(ctx, tree.Reader(&tr), func(pt vecmath.Point, id int64) error {
		s.ids = append(s.ids, id)
		s.pts = append(s.pts, pt.Clone())
		if len(s.ids) == stopAt {
			if cancel {
				stop()
			} else {
				return errStopScan
			}
		}
		return nil
	})
	s.reads = tr.Reads()
	return s
}

var errStopScan = errors.New("stop scan")

// TestDescendScansMatchRecursiveWalks: the dominator count and the
// incomparable scan, now Descend visitors, return what the recursive walks
// returned and read exactly the pages they read — on a heap tree serving
// its node cache and on a mapped copy decoding every page, d = 2…4, IND and
// ANTI — including scans stopped early by their callback and scans
// cancelled mid-walk.
func TestDescendScansMatchRecursiveWalks(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for _, dist := range []dataset.Distribution{dataset.IND, dataset.ANTI} {
			points := dataset.Generate(dist, 1000, d, int64(50*d)+int64(dist))
			heap := smallPageTree(t, points)
			whatIf := uniform(d, 0.5)
			focals := []struct {
				p  vecmath.Point
				id int64
			}{{points[3], 3}, {points[500], 500}, {points[999], 999}, {whatIf, -1}}
			for _, tree := range []*rstar.Tree{heap, mappedCopy(t, heap)} {
				name := fmt.Sprintf("d%d/%s/%T", d, dist, tree.Source())
				for _, f := range focals {
					var refTr, tr pager.Tracker
					want, err := refCountDominators(tree.Reader(&refTr), f.p)
					if err != nil {
						t.Fatal(err)
					}
					got, err := CountDominators(tree.Reader(&tr), f.p)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || tr.Reads() != refTr.Reads() {
						t.Fatalf("%s focal %d: CountDominators %d in %d reads, range counts %d in %d",
							name, f.id, got, tr.Reads(), want, refTr.Reads())
					}

					ref := func(ctx context.Context, rd rstar.Reader, fn func(vecmath.Point, int64) error) error {
						return refScanIncompNode(ctx, rd, rd.Root(), f.p, f.id, fn)
					}
					walk := func(ctx context.Context, rd rstar.Reader, fn func(vecmath.Point, int64) error) error {
						return scanIncomparable(ctx, rd, f.p, f.id, fn)
					}
					for _, stop := range []struct {
						at     int
						cancel bool
					}{{0, false}, {5, false}, {5, true}, {40, true}} {
						want, got := scanWith(stop.at, stop.cancel, ref, tree), scanWith(stop.at, stop.cancel, walk, tree)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s focal %d stop %+v: scanIncomparable %d records, %v, %d reads; recursive walk %d, %v, %d",
								name, f.id, stop, len(got.ids), got.err, got.reads, len(want.ids), want.err, want.reads)
						}
						if stop.at > 0 && len(got.ids) >= stop.at && got.err == nil {
							t.Fatalf("%s focal %d stop %+v: the scan ran on after being stopped", name, f.id, stop)
						}
					}
				}
			}
		}
	}
}

// uniform returns the d-dimensional point with every coordinate v.
func uniform(d int, v float64) vecmath.Point {
	p := make(vecmath.Point, d)
	for j := range p {
		p[j] = v
	}
	return p
}

// TestWarmMappedScanAllocations: on a mapped tree the dominator count and
// the incomparable scan decode into the walk's scratch, so once warm they
// allocate nothing.
func TestWarmMappedScanAllocations(t *testing.T) {
	points := dataset.Generate(dataset.IND, 5000, 2, 20150832)
	tree := mappedCopy(t, buildTree(t, points))
	p, id := points[meanWideFocal], int64(meanWideFocal)
	rd := tree.Reader(new(pager.Tracker))
	ctx := context.Background()
	var dom int64
	var inc int
	run := func() {
		var err error
		if dom, err = CountDominators(rd, p); err != nil {
			t.Fatal(err)
		}
		inc = 0
		err = scanIncomparable(ctx, rd, p, id, func(vecmath.Point, int64) error {
			inc++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run()
	if dom == 0 || inc < 100 {
		t.Fatalf("%d dominators, %d incomparable records: not a scan worth guarding", dom, inc)
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm mapped CountDominators and scanIncomparable: %v allocations, want 0", n)
	}
}
