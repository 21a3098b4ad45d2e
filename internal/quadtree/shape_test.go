package quadtree

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateShapes = flag.Bool("update-shapes", false, "rewrite testdata/shape_*.txt from the current implementation")

// shapeCase is one seeded insertion sequence whose resulting tree is pinned
// in testdata. The goldens were dumped from the pointer tree this package
// used to be, so they hold the arena to the same shape, boxes and list
// order; node IDs (path codes) and versions were rewritten when splits
// became deferred.
type shapeCase struct {
	name  string
	dr    int
	opts  Options
	n     int
	bound int // SetSplitBound(bound) after n/2 inserts; < 0 = never
}

func shapeCases() []shapeCase {
	var cs []shapeCase
	for dr := 1; dr <= 4; dr++ {
		n := []int{80, 60, 20, 14}[dr-1] // keeps each golden under 150 KB
		cs = append(cs,
			shapeCase{fmt.Sprintf("dr%d_plain", dr), dr, Options{MaxPartial: 4}, n, -1},
			shapeCase{fmt.Sprintf("dr%d_bound", dr), dr, Options{MaxPartial: 3}, n, 2},
			// A depth cap of 2 leaves most leaves far over MaxPartial.
			shapeCase{fmt.Sprintf("dr%d_capped", dr), dr, Options{MaxPartial: 2, MaxDepth: 2}, n, -1},
		)
	}
	return cs
}

// fill threads the case's half-spaces through t.
func (c shapeCase) fill(t *Tree) {
	rng := rand.New(rand.NewSource(int64(1000*c.dr + c.n)))
	for i := 0; i < c.n; i++ {
		if i == c.n/2 && c.bound >= 0 {
			t.SetSplitBound(c.bound)
		}
		t.Insert(&HalfspaceRef{H: randomHalfspace(rng, c.dr), RecordID: int64(i)})
	}
}

// dumpShape renders every leaf in DFS order.
func dumpShape(t *Tree) string {
	var b strings.Builder
	floats := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return strings.Join(parts, ",")
	}
	for _, l := range t.Leaves() {
		fmt.Fprintf(&b, "leaf id=%d ver=%d fc=%d full=%v partial=%v lo=%s hi=%s\n",
			l.NodeID(), l.Version(), l.FullCount(), l.Full(), l.Partial(), floats(l.Box().Lo), floats(l.Box().Hi))
	}
	return b.String()
}

func (c shapeCase) path() string { return filepath.Join("testdata", "shape_"+c.name+".txt") }

func (c shapeCase) golden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(c.path())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestShapeGoldenCold(t *testing.T) {
	for _, c := range shapeCases() {
		qt, err := New(c.dr, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.fill(qt)
		got := dumpShape(qt)
		if *updateShapes {
			if err := os.WriteFile(c.path(), []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if want := c.golden(t); got != want {
			t.Errorf("%s: cold tree differs from golden\n%s", c.name, firstDiff(got, want))
		}
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestShapeGoldenWarm rebuilds every case on one arena that has just held
// a larger tree of a different dimensionality and was then poisoned: what
// Reset leaves behind must not show in the next tree.
func TestShapeGoldenWarm(t *testing.T) {
	var qt Tree
	for _, c := range shapeCases() {
		big := shapeCase{dr: 4, opts: Options{MaxPartial: 2}, n: 40, bound: -1}
		if c.dr == 4 {
			big.dr = 3
		}
		if err := qt.Reset(big.dr, big.opts); err != nil {
			t.Fatal(err)
		}
		big.fill(&qt)
		qt.Leaves()
		bigNodes := len(qt.nodes)
		qt.Release()
		qt.Poison()
		if err := qt.Reset(c.dr, c.opts); err != nil {
			t.Fatal(err)
		}
		c.fill(&qt)
		got := dumpShape(&qt)
		if len(qt.nodes) >= bigNodes {
			t.Fatalf("%s: %d nodes after a tree of %d: the arena was not the larger one", c.name, len(qt.nodes), bigNodes)
		}
		if want := c.golden(t); got != want {
			t.Errorf("%s: warm tree differs from golden\n%s", c.name, firstDiff(got, want))
		}
	}
}
