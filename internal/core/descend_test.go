package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// refScanIncompNode is scanIncomparable as it was before its tree scan
// went through rstar.Reader.Descend, kept as the reference it and FCA's
// scan must match read for read. refCountDominators is CountDominators as
// two range counts over bounded windows.
func refScanIncompNode(ctx context.Context, rd rstar.Reader, id pager.PageID, p vecmath.Point, focalID int64, fn func(pt vecmath.Point, id int64) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n, err := rd.ReadNodeInto(id, nil)
	if err != nil {
		return err
	}
	for i := 0; i < n.Len(); i++ {
		if n.Leaf() {
			if n.RecordID(i) == focalID {
				continue
			}
			if vecmath.Compare(n.Lo(i), p) == vecmath.Incomparable {
				if err := fn(n.Lo(i).Clone(), n.RecordID(i)); err != nil {
					return err
				}
			}
			continue
		}
		if allGeq(p, n.Hi(i)) || allGeq(n.Lo(i), p) {
			continue
		}
		if err := refScanIncompNode(ctx, rd, n.Child(i), p, focalID, fn); err != nil {
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

// smallPageTree indexes points on pages of pageSize bytes: with 512, few
// entries a page, so that a thousand records make a tree three or four
// levels deep; with 256, at d = 2, ten a leaf and five a branch, so that a
// few dozen do.
func smallPageTree(t testing.TB, points []vecmath.Point, pageSize int) *rstar.Tree {
	t.Helper()
	tree, err := rstar.New(pager.NewStore(pageSize), len(points[0]), rstar.Options{})
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

// forkedTree forks a finalized heap tree as Dataset.Apply does: it deletes
// every tenth record but the fifth of points (which tree indexes under
// their positions), inserts as many records mirrored across the diagonal
// under new IDs, and finalizes. The fork then caches nodes it shares with
// tree beside nodes its Finalize re-decoded.
func forkedTree(t testing.TB, tree *rstar.Tree, points []vecmath.Point) *rstar.Tree {
	t.Helper()
	fork, err := tree.Fork(tree.Source().(*pager.Store).Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(points); i += 10 {
		q := points[i].Clone()
		slices.Reverse(q)
		if err := fork.Insert(q, int64(len(points)+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < len(points); i += 10 {
		if ok, err := fork.Delete(points[i], int64(i)); err != nil || !ok {
			t.Fatalf("delete of record %d: %v, %v", i, ok, err)
		}
	}
	if err := fork.Finalize(); err != nil {
		t.Fatal(err)
	}
	return fork
}

// fcaScanned is one run of FCA's incomparable scan: what it returns, the
// crossing lists it leaves and the pages it read.
type fcaScanned struct {
	above0   int
	nInc     int64
	up, down []float64
	err      error
	reads    int64
}

// fcaScanOf runs fcaState.scan on a fresh pooled state.
func fcaScanOf(tree *rstar.Tree, p vecmath.Point, focalID int64) fcaScanned {
	st := acquireState()
	defer releaseState(st)
	var s fcaScanned
	var tr pager.Tracker
	s.above0, s.nInc, s.err = st.fca.scan(context.Background(), tree.Reader(&tr), p, focalID)
	s.up, s.down, s.reads = append([]float64(nil), st.fca.up...), append([]float64(nil), st.fca.down...), tr.Reads()
	return s
}

// refFCAScan is FCA's scan over the recursive reference walk, with the
// crossing arithmetic FCA had when it ran on scanIncomparable.
func refFCAScan(tree *rstar.Tree, p vecmath.Point, focalID int64) fcaScanned {
	var s fcaScanned
	var tr pager.Tracker
	rd := tree.Reader(&tr)
	s.err = refScanIncompNode(context.Background(), rd, rd.Root(), p, focalID, func(r vecmath.Point, _ int64) error {
		s.nInc++
		a := (r[0] - r[1]) - (p[0] - p[1])
		c := r[1] - p[1]
		isAbove0 := c > 0 || (c == 0 && a > 0)
		if isAbove0 {
			s.above0++
		}
		if a == 0 {
			return nil
		}
		if t := -c / a; t > 0 && t < 1 {
			if isAbove0 {
				s.down = append(s.down, t)
			} else {
				s.up = append(s.up, t)
			}
		}
		return nil
	})
	s.reads = tr.Reads()
	return s
}

// checkScans holds the dominator count, the incomparable scan — run to
// the end, stopped by its callback and cancelled mid-walk — and, at d = 2,
// FCA's scan to the recursive reference walks: the same answers, the same
// records in the same order and the same pages read.
func checkScans(t *testing.T, name string, tree *rstar.Tree, p vecmath.Point, id int64) {
	t.Helper()
	var refTr, tr pager.Tracker
	want, err := refCountDominators(tree.Reader(&refTr), p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountDominators(tree.Reader(&tr), p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || tr.Reads() != refTr.Reads() {
		t.Fatalf("%s focal %d: CountDominators %d in %d reads, range counts %d in %d",
			name, id, got, tr.Reads(), want, refTr.Reads())
	}

	ref := func(ctx context.Context, rd rstar.Reader, fn func(vecmath.Point, int64) error) error {
		return refScanIncompNode(ctx, rd, rd.Root(), p, id, fn)
	}
	walk := func(ctx context.Context, rd rstar.Reader, fn func(vecmath.Point, int64) error) error {
		return scanIncomparable(ctx, rd, p, id, fn)
	}
	full := scanWith(0, false, walk, tree)
	for _, stop := range []struct {
		at     int
		cancel bool
	}{{0, false}, {5, false}, {5, true}, {40, true}} {
		want, got := scanWith(stop.at, stop.cancel, ref, tree), scanWith(stop.at, stop.cancel, walk, tree)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s focal %d stop %+v: scanIncomparable %d records, %v, %d reads; recursive walk %d, %v, %d",
				name, id, stop, len(got.ids), got.err, got.reads, len(want.ids), want.err, want.reads)
		}
		// A failing callback ends the scan at once; a cancelled one ends at
		// the next node read, if any is left.
		if stop.at == 0 || len(full.ids) < stop.at {
			continue
		}
		if !stop.cancel && (len(got.ids) != stop.at || got.err != errStopScan) ||
			stop.cancel && (got.err == nil) != (got.reads == full.reads) {
			t.Fatalf("%s focal %d stop %+v: the scan ran on after being stopped: %d records, %v, %d of %d reads",
				name, id, stop, len(got.ids), got.err, got.reads, full.reads)
		}
	}

	if tree.Dim() == 2 {
		if got, want := fcaScanOf(tree, p, id), refFCAScan(tree, p, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s focal %d: FCA's scan\n got  %+v\n want %+v", name, id, got, want)
		}
	}
}

// TestDescendScansMatchRecursiveWalks: the dominator count, the
// incomparable scan and FCA's scan, which go through Descend, return what
// the recursive walks returned and read exactly the pages they read — on a
// heap tree serving its node cache, on a mapped copy decoding every page
// and on a fork caching shared and changed nodes side by side, d = 2…4,
// IND and ANTI — including scans stopped early by their callback and
// scans cancelled mid-walk.
func TestDescendScansMatchRecursiveWalks(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for _, dist := range []dataset.Distribution{dataset.IND, dataset.ANTI} {
			points := dataset.Generate(dist, 1000, d, int64(50*d)+int64(dist))
			heap := smallPageTree(t, points, 512)
			whatIf := uniform(d, 0.5)
			focals := []struct {
				p  vecmath.Point
				id int64
			}{{points[3], 3}, {points[500], 500}, {points[999], 999}, {whatIf, -1}}
			for k, tree := range []*rstar.Tree{heap, mappedCopy(t, heap), forkedTree(t, heap, points)} {
				name := fmt.Sprintf("d%d/%s/%T#%d", d, dist, tree.Source(), k)
				for _, f := range focals {
					checkScans(t, name, tree, f.p, f.id)
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

// FuzzScanMatchesReference decodes FuzzFCAMatchesReference's instances
// (n ≤ 256 records on the k/16 grid, in-dataset or what-if focal; τ and
// record IDs unused), indexes them on 256-byte pages, so that the tree is
// deep, and runs checkScans on the heap tree, a mapped copy and a fork:
// the dominator count, the incomparable scan and FCA's scan against the
// recursive reference walks.
func FuzzScanMatchesReference(f *testing.F) {
	for _, in := range fcaSeeds() {
		f.Add(in.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fi, ok := decodeFCAInstance(data)
		if !ok {
			return
		}
		heap := smallPageTree(t, fi.points, 256)
		for k, tree := range []*rstar.Tree{heap, mappedCopy(t, heap), forkedTree(t, heap, fi.points)} {
			checkScans(t, fmt.Sprintf("n%d/%T#%d", len(fi.points), tree.Source(), k), tree, fi.focal, int64(fi.focalIdx))
		}
	})
}

// TestWarmMappedScanAllocations: on a mapped tree the dominator count, the
// incomparable scan and FCA's scan decode into the walk's scratch, so once
// warm they allocate nothing.
func TestWarmMappedScanAllocations(t *testing.T) {
	points := dataset.Generate(dataset.IND, 5000, 2, 20150832)
	tree := mappedCopy(t, buildTree(t, points))
	p, id := points[meanWideFocal], int64(meanWideFocal)
	rd := tree.Reader(new(pager.Tracker))
	ctx := context.Background()
	var dom int64
	var inc int
	var f fcaState
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
		if _, nInc, err := f.scan(ctx, rd, p, id); err != nil || nInc != int64(inc) {
			t.Fatalf("FCA's scan: %d incomparable records (%v), scanIncomparable %d", nInc, err, inc)
		}
	}
	run()
	if dom == 0 || inc < 100 || len(f.up) == 0 || len(f.down) == 0 {
		t.Fatalf("%d dominators, %d incomparable records, %d+%d crossings: not a scan worth guarding",
			dom, inc, len(f.up), len(f.down))
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("warm mapped CountDominators, scanIncomparable and FCA's scan: %v allocations, want 0", n)
	}
}
