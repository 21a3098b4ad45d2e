package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/vecmath"
)

// pagesDigest is the SHA-256 of every page of store in ascending ID order:
// each page's ID and length as 8-byte little-endian words, then its image.
func pagesDigest(t *testing.T, store *pager.Store) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	err := store.ForEachPage(func(id pager.PageID, data []byte) error {
		binary.LittleEndian.PutUint64(word[:], uint64(id))
		h.Write(word[:])
		binary.LittleEndian.PutUint64(word[:], uint64(len(data)))
		h.Write(word[:])
		h.Write(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTreePagesPinned pins the page images of trees over 512-byte pages at
// d = 2, 3 and 5: after a bulk load of 1 000 points, and after 2 000
// seeded inserts and deletes applied through Fork and Finalize in batches
// of 100. The first thousand operations mostly delete, so underfull nodes
// are condensed and the root shrinks; the second mostly insert, so nodes
// split, levels overflow into forced reinserts and the root grows. Any
// change to the order of a node's entries, to a split or reinsert choice,
// or to a float expression behind one moves a digest. The first three
// digests were computed when a node was an array of Entry structs, before
// it became coordinate, ID and count slabs.
//
// The signed-zero cases at d = 2 and 3 draw each coordinate from a 1/64
// grid or, one time in three, as −0 or +0; even axes lie in [0, 1) and odd
// ones in (−1, 0], so zero is a least lower bound and a greatest upper
// one. One insert in four duplicates a live point with its zeros' signs
// redrawn. Which zero a bound keeps depends on the order its MBR is folded
// in, so these pin the sign of every zero bound a page holds: extending
// ancestor entries by a point with a zero coordinate, instead of
// re-scanning their children, moves both mutated digests. The digests
// were computed on a checkout of 8e34a3c, where every ancestor entry on an
// insert path was re-scanned.
func TestTreePagesPinned(t *testing.T) {
	cases := []struct {
		d           int
		signedZeros bool
		want        [2]string
	}{
		{2, false, [2]string{"96ab6a85e617c357743aca24cd9ff9dfe724f133ff0448fab5086e13c93c8cda", "b525e2c2c51c4ece6ce459cfa701fd7cb349c45539f39e8cf3b7eacad73f66a3"}},
		{3, false, [2]string{"52df1e604db8ffab7b06a0e6055214fc675635c347baf791337bc6dd5c138a3b", "4ef8535fd3fcd2ec898abeb857d18c27309a4ccf02b45ef79bf553a3d8edc8af"}},
		{5, false, [2]string{"dfcc887a03fea0d106f0f7821bbccfa34d819e23ea6939e3c2611ad24e3c22c2", "736c7fa05891bf5614f7a154173c0f48f9f29210361ed4cd1be1ba042bae93a9"}},
		{2, true, [2]string{"7571ec9b4b38b0553d24c7eab3b7f265db14f0ebd9f9b15318a92d3680da5a74", "ca6b30d56939b6c727a44d1dade37724156905e2b94e2a7efc510c5b7f0d99dc"}},
		{3, true, [2]string{"508b43ee64b440437dc502c636089089e8cac0133e12815b9014e24009fc626d", "278ec00e69c91290f416a2bf4c5a57eaecfafba31b4746d805826848038a52e4"}},
	}
	for _, c := range cases {
		d := c.d
		store := pager.NewStore(512)
		tree, err := New(store, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(100 + d)
		if c.signedZeros {
			seed += 100
		}
		rng := rand.New(rand.NewSource(seed))
		// Coordinates on a 1/64 grid: sort keys and distances tie often, so
		// the digests pin the order sorting leaves tied entries in too.
		gridPoints := func(n int) []vecmath.Point {
			pts := randomPoints(rng, n, d)
			for _, p := range pts {
				for k := range p {
					p[k] = math.Floor(p[k]*64) / 64
				}
			}
			return pts
		}
		zero := func() float64 {
			if rng.Intn(2) == 0 {
				return math.Copysign(0, -1)
			}
			return 0
		}
		if c.signedZeros {
			gridPoints = func(n int) []vecmath.Point {
				pts := make([]vecmath.Point, n)
				for i := range pts {
					pts[i] = make(vecmath.Point, d)
					for k := range pts[i] {
						pts[i][k] = float64(rng.Intn(64)) / 64
						if rng.Intn(3) == 0 {
							pts[i][k] = zero()
						}
						if k%2 == 1 {
							pts[i][k] = -pts[i][k]
						}
					}
				}
				return pts
			}
		}
		pts := gridPoints(1000)
		if err := tree.BulkLoad(pts, nil); err != nil {
			t.Fatal(err)
		}
		if err := tree.Finalize(); err != nil {
			t.Fatal(err)
		}
		bulk := pagesDigest(t, store)

		type rec struct {
			p  vecmath.Point
			id int64
		}
		live := make([]rec, len(pts))
		for i, p := range pts {
			live[i] = rec{p, int64(i)}
		}
		nextID := int64(len(pts))
		grew, shrank := false, false
		cur := tree
		for batch := 0; batch < 20; batch++ {
			fork, err := cur.Fork(cur.store.Clone())
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 100; op++ {
				insertShare := 0.02
				if batch >= 10 {
					insertShare = 0.95
				}
				h := fork.Height()
				if len(live) == 0 || rng.Float64() < insertShare {
					p := gridPoints(1)[0]
					if c.signedZeros && len(live) > 0 && rng.Intn(4) == 0 {
						p = live[rng.Intn(len(live))].p.Clone()
						for k := range p {
							if p[k] == 0 {
								p[k] = zero()
							}
						}
					}
					if err := fork.Insert(p, nextID); err != nil {
						t.Fatal(err)
					}
					live = append(live, rec{p, nextID})
					nextID++
				} else {
					k := rng.Intn(len(live))
					if ok, err := fork.Delete(live[k].p, live[k].id); err != nil || !ok {
						t.Fatalf("d=%d: delete of record %d: %v, %v", d, live[k].id, ok, err)
					}
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				grew = grew || fork.Height() > h
				shrank = shrank || fork.Height() < h
			}
			if err := fork.Finalize(); err != nil {
				t.Fatal(err)
			}
			cur = fork
		}
		if err := cur.CheckInvariants(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !grew || !shrank {
			t.Fatalf("d=%d: the root grew %v and shrank %v, want both", d, grew, shrank)
		}
		mutated := pagesDigest(t, cur.store)
		t.Logf("d=%d signed zeros %v: %d records, height %d, bulk %s, mutated %s", d, c.signedZeros, cur.Size(), cur.Height(), bulk, mutated)
		if got := [2]string{bulk, mutated}; got != c.want {
			t.Errorf("d=%d signed zeros %v: page digests %v, want %v", d, c.signedZeros, got, c.want)
		}
	}
}
