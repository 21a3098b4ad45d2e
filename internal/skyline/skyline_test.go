package skyline

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

func buildTree(t testing.TB, pts []vecmath.Point) *rstar.Tree {
	t.Helper()
	store := pager.NewStore(0)
	tree, err := rstar.New(store, len(pts[0]), rstar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()
	return tree
}

// bruteSkyline computes the maximisation skyline of the records
// incomparable to focal, excluding the records in `expanded`.
func bruteSkyline(pts []vecmath.Point, focal vecmath.Point, focalID int64, expanded map[int64]bool) map[int64]bool {
	var inc []int
	for i, p := range pts {
		if int64(i) == focalID || expanded[int64(i)] {
			continue
		}
		if vecmath.Compare(p, focal) == vecmath.Incomparable {
			inc = append(inc, i)
		}
	}
	out := map[int64]bool{}
	for _, i := range inc {
		dominated := false
		for _, j := range inc {
			if i != j && vecmath.DominatesStrict(pts[j], pts[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out[int64(i)] = true
		}
	}
	return out
}

func ids(recs []Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSets(a []int64, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for _, v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func randomPoints(rng *rand.Rand, n, d int) []vecmath.Point {
	pts := make([]vecmath.Point, n)
	for i := range pts {
		p := make(vecmath.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func TestInitialSkylineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		d := 2 + trial%3
		pts := randomPoints(rng, 300, d)
		focalID := int64(trial * 7 % 300)
		tree := buildTree(t, pts)
		m, err := New(tree, pts[focalID], focalID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Skyline()
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSkyline(pts, pts[focalID], focalID, nil)
		if !equalSets(ids(got), want) {
			t.Fatalf("trial %d: skyline %v != brute %v", trial, ids(got), want)
		}
	}
}

func TestExpandMaintainsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 400, 3)
	focalID := int64(11)
	tree := buildTree(t, pts)
	m, err := New(tree, pts[focalID], focalID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Skyline(); err != nil {
		t.Fatal(err)
	}
	expanded := map[int64]bool{}
	rngPick := rand.New(rand.NewSource(3))
	// Repeatedly expand a random active member and check the invariant:
	// Active() must equal the brute-force skyline of the non-expanded
	// incomparable records.
	for round := 0; round < 40; round++ {
		active := m.Active()
		if len(active) == 0 {
			break
		}
		victim := active[rngPick.Intn(len(active))].ID
		if _, err := m.Expand(victim); err != nil {
			t.Fatal(err)
		}
		expanded[victim] = true
		want := bruteSkyline(pts, pts[focalID], focalID, expanded)
		got := ids(m.Active())
		if !equalSets(got, want) {
			t.Fatalf("round %d: active %d members != brute %d", round, len(got), len(want))
		}
	}
}

func TestExpandErrors(t *testing.T) {
	pts := []vecmath.Point{{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5}}
	tree := buildTree(t, pts)
	m, err := New(tree, pts[2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Skyline(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Expand(999); err == nil {
		t.Fatal("expand of unknown record should fail")
	}
	if _, err := m.Expand(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Expand(0); err == nil {
		t.Fatal("double expand should fail")
	}
}

// TestNoNodeReadTwice verifies the paper's I/O property: across any
// expansion sequence, each R*-tree page is read at most once.
func TestNoNodeReadTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 2000, 3)
	store := pager.NewStore(0)
	tree, err := rstar.New(store, 3, rstar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	store.ResetStats()

	m, err := New(tree, pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Skyline(); err != nil {
		t.Fatal(err)
	}
	// Expand everything, exhaustively surfacing all incomparable records.
	for {
		active := m.Active()
		if len(active) == 0 {
			break
		}
		if _, err := m.Expand(active[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	reads := store.Stats().Reads
	if reads > int64(store.NumPages()) {
		t.Fatalf("%d reads exceed %d pages: some node was read twice", reads, store.NumPages())
	}
	// Every incomparable record must have surfaced exactly once.
	want := 0
	for i, p := range pts {
		if i != 0 && vecmath.Compare(p, pts[0]) == vecmath.Incomparable {
			want++
		}
	}
	if m.Accessed() != int64(want) {
		t.Fatalf("accessed %d records, want %d", m.Accessed(), want)
	}
}

func TestDominatorAndDomineeExcluded(t *testing.T) {
	pts := []vecmath.Point{
		{0.5, 0.5}, // focal
		{0.9, 0.9}, // dominator
		{0.1, 0.1}, // dominee
		{0.9, 0.1}, // incomparable
		{0.1, 0.9}, // incomparable
		{0.5, 0.5}, // duplicate of focal (tie): excluded
	}
	tree := buildTree(t, pts)
	m, err := New(tree, pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{3: true, 4: true}
	if !equalSets(ids(got), want) {
		t.Fatalf("skyline = %v, want {3,4}", ids(got))
	}
}

func TestFocalNotInTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 200, 2)
	tree := buildTree(t, pts)
	focal := vecmath.Point{0.5, 0.5}
	m, err := New(tree, focal, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	want := bruteSkyline(pts, focal, -1, nil)
	if !equalSets(ids(got), want) {
		t.Fatalf("skyline mismatch for external focal")
	}
}

func TestDimMismatch(t *testing.T) {
	pts := []vecmath.Point{{0.1, 0.2}, {0.3, 0.4}}
	tree := buildTree(t, pts)
	if _, err := New(tree, vecmath.Point{0.1}, -1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// TestSlabOverflowIsSticky lowers the slab limit under a query's needs: the
// query must fail, keep failing, and never index past the limit; the same
// Maintainer serves the next query once Reset.
func TestSlabOverflowIsSticky(t *testing.T) {
	defer func(old int) { slabLimit = old }(slabLimit)
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 1500, 3)
	tree := buildTree(t, pts)
	want, err := New(tree, pts[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	first, err := want.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	full := len(want.slots)

	for _, limit := range []int{0, 1, full / 2, full - 1} {
		slabLimit = limit
		m, err := New(tree, pts[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Skyline(); err == nil {
			t.Fatalf("limit %d of %d entries: Skyline succeeded", limit, full)
		}
		if _, err := m.Skyline(); err == nil {
			t.Fatalf("limit %d: the error did not stick", limit)
		}
		if len(m.slots) > limit {
			t.Fatalf("limit %d: slab holds %d entries", limit, len(m.slots))
		}
		slabLimit = full
		if err := m.Reset(context.Background(), tree.Reader(nil), pts[0], 0); err != nil {
			t.Fatal(err)
		}
		got, err := m.Skyline()
		if err != nil {
			t.Fatalf("limit %d: after Reset at the exact limit: %v", limit, err)
		}
		if !slices.Equal(recordIDs(got), recordIDs(first)) {
			t.Fatalf("limit %d: after Reset got %v, want %v", limit, recordIDs(got), recordIDs(first))
		}
	}
}
