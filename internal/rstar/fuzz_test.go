package rstar

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// opStream hands out the bytes of a fuzz input one at a time, then zeros.
type opStream []byte

func (s *opStream) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

// gridPoint draws a point on a 16-step grid of the unit cube, so that
// inputs repeat points, coordinates and bounds often. A byte whose low
// four bits are zero gives −0 when its bit 4 is set and +0 otherwise, so
// the zeros of a bound have either sign.
func gridPoint(d int, next func() byte) vecmath.Point {
	p := make(vecmath.Point, d)
	for k := range p {
		b := next()
		p[k] = float64(b%16) / 16
		if b%32 == 16 {
			p[k] = math.Copysign(0, -1)
		}
	}
	return p
}

// treeState is what FuzzTreeOps keeps of a tree it forked from: its pages
// and a copy of every cached node, as they were at the fork.
type treeState struct {
	tree  *Tree
	pages map[pager.PageID][]byte
	nodes map[pager.PageID]*Node
}

func stateOf(tree *Tree) treeState {
	s := treeState{tree: tree, pages: map[pager.PageID][]byte{}, nodes: map[pager.PageID]*Node{}}
	tree.store.ForEachPage(func(id pager.PageID, data []byte) error {
		s.pages[id] = bytes.Clone(data)
		return nil
	})
	for id, n := range tree.cache {
		s.nodes[id] = n.clone(0)
	}
	return s
}

// checkFinalized checks a tree just finalized against the model multiset
// of its records: its invariants, its size, a range count over a window
// drawn from next against brute force, every cached node against a decode
// of its page, and every branch entry against its child's MBR. Each
// ancestor must still hold the pages and nodes it held when it was forked.
func checkFinalized(t *testing.T, tree *Tree, model []Item, ancestors []treeState, next func() byte) {
	t.Helper()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Size() != int64(len(model)) {
		t.Fatalf("size %d, model holds %d records", tree.Size(), len(model))
	}
	a, b := gridPoint(tree.Dim(), next), gridPoint(tree.Dim(), next)
	window := geom.Rect{Lo: make(vecmath.Point, tree.Dim()), Hi: make(vecmath.Point, tree.Dim())}
	for k := range a {
		window.Lo[k], window.Hi[k] = min(a[k], b[k]), max(a[k], b[k])
	}
	var want int64
	for _, it := range model {
		if window.Contains(it.Point) {
			want++
		}
	}
	if got, err := tree.Reader(nil).RangeCount(window); err != nil || got != want {
		t.Fatalf("RangeCount(%v) = %d (%v), brute force %d", window, got, err, want)
	}
	if len(tree.cache) != tree.store.NumPages() {
		t.Fatalf("%d cached nodes over %d pages", len(tree.cache), tree.store.NumPages())
	}
	err := tree.store.ForEachPage(func(id pager.PageID, data []byte) error {
		var page Node
		if err := page.decode(id, data); err != nil {
			return err
		}
		if n := tree.cache[id]; n == nil || !sameNode(n, &page) {
			return fmt.Errorf("cached node %d differs from its page", id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every branch entry holds, bit for bit, the bounds a re-scan of its
	// child gives: the signs of zero bounds included.
	box := newRect(tree.Dim())
	for id, n := range tree.cache {
		for i := 0; i < n.Len() && !n.Leaf(); i++ {
			c := tree.cache[n.Child(i)]
			c.mbrInto(box, 0, c.Len())
			if e := n.rect(i); !bitsEqual(e.Lo, box.Lo) || !bitsEqual(e.Hi, box.Hi) {
				t.Fatalf("node %d entry %d bounds %v, its child re-scans to %v", id, i, e, box)
			}
		}
	}
	for gen, s := range ancestors {
		err := s.tree.store.ForEachPage(func(id pager.PageID, data []byte) error {
			if !bytes.Equal(s.pages[id], data) {
				return fmt.Errorf("page %d changed", id)
			}
			return nil
		})
		if err == nil && s.tree.store.NumPages() != len(s.pages) {
			err = fmt.Errorf("%d pages, %d at the fork", s.tree.store.NumPages(), len(s.pages))
		}
		for id, n := range s.tree.cache {
			if err == nil && !sameNode(n, s.nodes[id]) {
				err = fmt.Errorf("node %d changed", id)
			}
		}
		if err != nil {
			t.Fatalf("ancestor %d: %v", gen, err)
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// FuzzTreeOps decodes its input into inserts, deletes, forks and
// finalizes on a d = 2 tree over 256-byte pages or a d = 3 tree over
// 264-byte pages (the least that holds four d = 3 branch entries), and
// checks the tree against a model multiset of its records. Points lie on a
// coarse grid, so duplicate points, and duplicate bounds among the node
// entries that splits and reinserts sort, are common. After each Finalize
// checkFinalized runs; a Fork of a tree with unfinalized changes must fail.
// The seed corpus under testdata/fuzz/FuzzTreeOps is treeOpsSeeds'.
//
// Input: byte 0 picks d, byte 1 seeds a bulk load of up to 63 points, and
// every later byte b starts an operation by b % 8:
//
//	0, 1  insert a point drawn from the next d bytes
//	2     insert 1–16 points drawn from a generator seeded by the next byte
//	3     insert a duplicate of the record the next byte picks
//	4     delete the record the next byte picks
//	5     delete 1–8 records picked by a generator seeded by the next byte
//	6     delete a record that is not there: the next byte's record, ID −1
//	7     next byte even: finalize and check; odd: fork
func FuzzTreeOps(f *testing.F) {
	f.Fuzz(runTreeOps)
}

// runTreeOps runs one FuzzTreeOps input, up to its first 4 KiB: each
// Finalize checks the whole tree, so the cost grows with the square of
// the input's length.
func runTreeOps(t *testing.T, data []byte) {
	in := opStream(data[:min(len(data), 4096)])
	next := in.next
	d := 2 + int(next()&1)
	store := pager.NewStore(256 + 8*(d-2))
	tree, err := New(store, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var model []Item
	nextID := int64(0)
	seed := next()
	rng := rand.New(rand.NewSource(int64(seed)))
	byRNG := func() byte { return byte(rng.Intn(256)) }
	var pts []vecmath.Point
	for range seed % 64 {
		p := gridPoint(d, byRNG)
		pts = append(pts, p)
		model = append(model, Item{Point: p, RecordID: nextID})
		nextID++
	}
	if err := tree.BulkLoad(pts, nil); err != nil {
		t.Fatal(err)
	}
	insert := func(p vecmath.Point) {
		if err := tree.Insert(p, nextID); err != nil {
			t.Fatal(err)
		}
		model = append(model, Item{Point: p, RecordID: nextID})
		nextID++
	}
	remove := func(k int) {
		it := model[k]
		if ok, err := tree.Delete(it.Point, it.RecordID); err != nil || !ok {
			t.Fatalf("delete of record %d at %v: %v, %v", it.RecordID, it.Point, ok, err)
		}
		model[k] = model[len(model)-1]
		model = model[:len(model)-1]
	}
	var ancestors []treeState
	finalize := func() {
		if err := tree.Finalize(); err != nil {
			t.Fatal(err)
		}
		checkFinalized(t, tree, model, ancestors, next)
	}
	for len(in) > 0 {
		switch b := next(); b % 8 {
		case 0, 1:
			insert(gridPoint(d, next))
		case 2:
			rng.Seed(int64(next()))
			for range 1 + rng.Intn(16) {
				insert(gridPoint(d, byRNG))
			}
		case 3:
			if len(model) > 0 {
				insert(model[int(next())%len(model)].Point.Clone())
			}
		case 4:
			if len(model) > 0 {
				remove(int(next()) % len(model))
			}
		case 5:
			rng.Seed(int64(next()))
			for k := 1 + rng.Intn(8); k > 0 && len(model) > 0; k-- {
				remove(rng.Intn(len(model)))
			}
		case 6:
			if len(model) > 0 {
				p := model[int(next())%len(model)].Point
				if ok, err := tree.Delete(p, -1); err != nil || ok {
					t.Fatalf("delete of a missing record at %v: %v, %v", p, ok, err)
				}
			}
		case 7:
			if next()%2 == 0 {
				finalize()
				continue
			}
			fork, err := tree.Fork(tree.store.Clone())
			if len(tree.dirty) > 0 {
				if err == nil {
					t.Fatal("a tree with unfinalized changes forked")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ancestors = append(ancestors, stateOf(tree))
			if len(ancestors) > 3 {
				ancestors = ancestors[1:]
			}
			tree = fork
		}
	}
	finalize()
}

// treeOpsSeeds are FuzzTreeOps' seed inputs: bulk loads with runs of
// inserts, duplicates and deletes between finalizes and forks, long
// enough at either d to split, reinsert, condense and shrink the root,
// with single inserts often at −0 or +0 on some axis. Each operation is
// followed by exactly the bytes it reads.
func treeOpsSeeds() [][]byte {
	var seeds [][]byte
	for i := range 6 {
		rng := rand.New(rand.NewSource(int64(i)))
		d := 2 + i%2
		seed := []byte{byte(i), byte(rng.Intn(256))}
		args := func(k int) {
			for range k {
				seed = append(seed, byte(rng.Intn(256)))
			}
		}
		// coords draws a point's bytes, a third of them zeros of either sign.
		coords := func(k int) {
			for range k {
				b := byte(rng.Intn(256))
				if rng.Intn(3) == 0 {
					b &^= 15
				}
				seed = append(seed, b)
			}
		}
		for op := 0; op < 80+40*i; op++ {
			kind := rng.Intn(8)
			switch {
			case op < 30+10*i && kind >= 4 && kind <= 6:
				kind = 2 // grow first,
			case op >= 30+10*i && rng.Intn(2) == 0:
				kind = 5 // then shrink
			}
			seed = append(seed, byte(kind+8*rng.Intn(32)))
			switch fork := rng.Intn(2); kind {
			case 0, 1:
				coords(d)
			case 7:
				seed = append(seed, byte(2*rng.Intn(128)+fork))
				if fork == 0 {
					args(2 * d) // the window checkFinalized reads
				}
			default:
				args(1)
			}
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestGenerateTreeOpsCorpus (re)writes the committed seed corpus under
// testdata/fuzz/FuzzTreeOps from treeOpsSeeds. Skipped unless
// GEN_FUZZ_CORPUS=1:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/rstar -run TestGenerateTreeOpsCorpus
func TestGenerateTreeOpsCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzTreeOps")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, data := range treeOpsSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
