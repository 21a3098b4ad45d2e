package rstar

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// refRangeCount and refRangeSearch are the hand-written recursive walks
// RangeCount and RangeSearch ran before they became Descend visitors, kept
// as the reference they must match read for read.
func refRangeCount(r Reader, id pager.PageID, window geom.Rect) (int64, error) {
	n, err := r.ReadNodeInto(id, nil)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := range n.Entries {
		e := &n.Entries[i]
		if !window.Intersects(e.Rect) {
			continue
		}
		if n.Leaf() {
			if window.Contains(e.Point()) {
				total++
			}
			continue
		}
		if window.ContainsRect(e.Rect) {
			total += e.Count
			continue
		}
		sub, err := refRangeCount(r, e.Child, window)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}

func refRangeSearch(r Reader, id pager.PageID, window geom.Rect, fn func(Item) bool) (bool, error) {
	n, err := r.ReadNodeInto(id, nil)
	if err != nil {
		return false, err
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if !window.Intersects(e.Rect) {
			continue
		}
		if n.Leaf() {
			if window.Contains(e.Point()) {
				if !fn(Item{Point: e.Point(), RecordID: e.RecordID}) {
					return false, nil
				}
			}
			continue
		}
		cont, err := refRangeSearch(r, e.Child, window, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// randomWindow draws a box whose side lengths range from a sliver to most
// of the unit cube.
func randomWindow(rng *rand.Rand, d int) geom.Rect {
	lo, hi := make(vecmath.Point, d), make(vecmath.Point, d)
	for j := range lo {
		a, b := rng.Float64(), rng.Float64()
		lo[j], hi[j] = min(a, b), max(a, b)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// searched runs a range search that stops after limit records (0: never)
// and returns the records it saw, cloned.
func searched(t *testing.T, limit int, run func(fn func(Item) bool) error) []Item {
	t.Helper()
	var items []Item
	err := run(func(it Item) bool {
		items = append(items, Item{Point: it.Point.Clone(), RecordID: it.RecordID})
		return limit == 0 || len(items) < limit
	})
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestDescendMatchesRecursiveWalks: RangeCount and RangeSearch, now Descend
// visitors, return what the recursive walks returned and read exactly the
// pages they read — on a heap tree serving its node cache and on a mapped
// copy decoding every page — over random windows, the whole tree, and
// searches stopped early.
func TestDescendMatchesRecursiveWalks(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for _, dist := range []dataset.Distribution{dataset.IND, dataset.ANTI} {
			pts := dataset.Generate(dist, 1200, d, int64(10*d)+int64(dist))
			store := pager.NewStore(512)
			heap, err := New(store, d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := heap.BulkLoad(pts, nil); err != nil {
				t.Fatal(err)
			}
			if err := heap.Finalize(); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(d)))
			for _, tree := range []*Tree{heap, mappedCopy(t, heap)} {
				name := fmt.Sprintf("d%d/%s/%T", d, dist, tree.Source())
				windows := []geom.Rect{everything(d)}
				for i := 0; i < 40; i++ {
					windows = append(windows, randomWindow(rng, d))
				}
				for i, w := range windows {
					var refTr, tr pager.Tracker
					want, err := refRangeCount(tree.Reader(&refTr), tree.Root(), w)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tree.Reader(&tr).RangeCount(w)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || tr.Reads() != refTr.Reads() {
						t.Fatalf("%s window %d: RangeCount %d in %d reads, recursive walk %d in %d",
							name, i, got, tr.Reads(), want, refTr.Reads())
					}
					for _, limit := range []int{0, 1, 7} {
						var refTr, tr pager.Tracker
						want := searched(t, limit, func(fn func(Item) bool) error {
							_, err := refRangeSearch(tree.Reader(&refTr), tree.Root(), w, fn)
							return err
						})
						got := searched(t, limit, func(fn func(Item) bool) error {
							return tree.Reader(&tr).RangeSearch(w, fn)
						})
						if !reflect.DeepEqual(got, want) || tr.Reads() != refTr.Reads() {
							t.Fatalf("%s window %d limit %d: RangeSearch %d records in %d reads, recursive walk %d in %d",
								name, i, limit, len(got), tr.Reads(), len(want), refTr.Reads())
						}
					}
				}
			}
		}
	}
}

// TestWarmDescendAllocations: a walk over a mapped tree decodes into its
// per-depth scratch, so once warm it allocates nothing.
func TestWarmDescendAllocations(t *testing.T) {
	built, _ := finalizedTree(t, 2000, 3, Options{})
	rd := mappedCopy(t, built).Reader(nil)
	window := geom.MustRect(vecmath.Point{0.2, 0.2, 0.2}, vecmath.Point{0.9, 0.9, 0.9})
	count := func() {
		if _, err := rd.RangeCount(window); err != nil {
			t.Fatal(err)
		}
	}
	count()
	if n := testing.AllocsPerRun(20, count); n != 0 {
		t.Fatalf("warm RangeCount over a mapped tree: %v allocations, want 0", n)
	}
}

// TestWalkReuse: sequential walks run on one scratch, and more concurrent
// walks than GOMAXPROCS leave at most GOMAXPROCS scratches behind.
func TestWalkReuse(t *testing.T) {
	tree, _ := finalizedTree(t, 300, 2, Options{})
	rd := tree.Reader(nil)
	freeWalks.Lock()
	saved := freeWalks.list
	freeWalks.list = nil
	freeWalks.Unlock()
	defer func() {
		freeWalks.Lock()
		freeWalks.list = saved
		freeWalks.Unlock()
	}()

	seen := map[*walk]bool{}
	for i := 0; i < 10; i++ {
		w := acquireWalk()
		seen[w] = true
		releaseWalk(w)
		runtime.GC()
	}
	if len(seen) != 1 {
		t.Fatalf("10 sequential walks used %d scratches, want 1", len(seen))
	}

	limit := runtime.GOMAXPROCS(0)
	var started, wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < limit+2; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			err := rd.Descend(nil, func(*Entry, bool) (bool, error) {
				if first {
					first = false
					started.Done()
					<-release // limit+2 walks are in flight at once
				}
				return false, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	freeWalks.Lock()
	kept := len(freeWalks.list)
	freeWalks.Unlock()
	if kept != limit {
		t.Fatalf("%d concurrent walks left %d scratches on the free list, want GOMAXPROCS = %d", limit+2, kept, limit)
	}
}
