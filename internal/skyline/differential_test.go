package skyline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/vecmath"
)

// diffInput is one dataset + focal the differential test drives both
// maintainers over.
type diffInput struct {
	name    string
	pts     []vecmath.Point
	focal   vecmath.Point
	focalID int64
	// noBrute marks inputs on which the maintained set is by design not the
	// mathematical skyline (a dominator whose float coordinate sum ties
	// with its dominee's and whose ID is larger surfaces second), so only
	// the two maintainers are compared.
	noBrute bool
}

// smallPageTree indexes pts with few entries a page, so that a few hundred
// records already make a tree three or four levels deep.
func smallPageTree(t testing.TB, pts []vecmath.Point) *rstar.Tree {
	t.Helper()
	store := pager.NewStore(512)
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
	return tree
}

// insertedTree indexes pts like smallPageTree but one record at a time
// through R* insertion, as a mutated dataset's tree is grown: other page
// boundaries, overlapping MBRs and underfull nodes for the BBS search.
func insertedTree(t testing.TB, pts []vecmath.Point) *rstar.Tree {
	t.Helper()
	tree, err := rstar.New(pager.NewStore(512), len(pts[0]), rstar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tree.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Finalize(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// mappedCopy serves the pages of a finalized heap tree through a read-only
// pager.Mapped source, as a snapshot loaded from a file is served: the same
// tree, decoding every page it reads.
func mappedCopy(t testing.TB, tree *rstar.Tree) *rstar.Tree {
	t.Helper()
	var pages []pager.MappedPage
	tree.Source().ForEachPage(func(id pager.PageID, data []byte) error {
		pages = append(pages, pager.MappedPage{ID: id, Data: data})
		return nil
	})
	src, err := pager.NewMapped(tree.Source().PageSize(), pages)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := rstar.RestoreFrom(src, tree.Dim(), tree.Root(), tree.Height(), tree.Size(), rstar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ro
}

// lattice draws n points whose coordinates are multiples of 1/steps: many
// exact duplicates, shared coordinates, tied coordinate sums, and records
// that are the top corner of their page's MBR.
func lattice(rng *rand.Rand, n, d, steps int) []vecmath.Point {
	pts := make([]vecmath.Point, n)
	for i := range pts {
		p := make(vecmath.Point, d)
		for j := range p {
			p[j] = float64(1+rng.Intn(steps)) / float64(steps+1)
		}
		pts[i] = p
	}
	return pts
}

// degenerateInputs are the shapes the d = 2 staircase (and the slab
// bookkeeping at every d) must survive.
func degenerateInputs(d int, seed int64) []diffInput {
	rng := rand.New(rand.NewSource(seed))
	var out []diffInput

	// Duplicates: every point of a random set appears two to four times.
	base := randomPoints(rng, 90, d)
	var dup []vecmath.Point
	for _, p := range base {
		for k := 2 + rng.Intn(3); k > 0; k-- {
			dup = append(dup, p.Clone())
		}
	}
	rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	out = append(out, diffInput{name: "duplicates", pts: dup, focal: dup[7], focalID: 7})

	// One axis quantised to a handful of values, the others continuous.
	for axis := 0; axis < 2; axis++ {
		pts := randomPoints(rng, 300, d)
		for _, p := range pts {
			p[axis] = float64(1+rng.Intn(6)) / 8
		}
		out = append(out, diffInput{name: fmt.Sprintf("shared_axis%d", axis), pts: pts, focal: pts[3], focalID: 3})
	}

	// Lattices, coarse and fine, with the focal a record, a lattice point
	// that is not a record's ID (a what-if equal to some records), and a
	// point off the lattice.
	for _, steps := range []int{4, 9} {
		pts := lattice(rng, 350, d, steps)
		out = append(out, diffInput{name: fmt.Sprintf("lattice%d_in", steps), pts: pts, focal: pts[11], focalID: 11})
		out = append(out, diffInput{name: fmt.Sprintf("lattice%d_whatif_on", steps), pts: pts, focal: pts[12].Clone(), focalID: -1})
		off := make(vecmath.Point, d)
		for j := range off {
			off[j] = 0.5 + 0.013*float64(j)
		}
		out = append(out, diffInput{name: fmt.Sprintf("lattice%d_whatif_off", steps), pts: pts, focal: off, focalID: -1})
	}

	// A page of records under one that equals the page's MBR top corner:
	// tight clusters, each with its own maximum appended.
	var clustered []vecmath.Point
	for c := 0; c < 40; c++ {
		centre := randomPoints(rng, 1, d)[0]
		top := make(vecmath.Point, d)
		for k := 0; k < 8; k++ {
			p := make(vecmath.Point, d)
			for j := range p {
				p[j] = centre[j]*0.9 + 0.01*rng.Float64()
				top[j] = math.Max(top[j], p[j])
			}
			clustered = append(clustered, p)
		}
		clustered = append(clustered, top)
	}
	out = append(out, diffInput{name: "corner_records", pts: clustered, focal: clustered[5], focalID: 5})

	// Everything incomparable to the focal on one side only.
	pts := randomPoints(rng, 200, d)
	edge := make(vecmath.Point, d)
	edge[0] = 2 // beyond the data on axis 0, below it elsewhere
	out = append(out, diffInput{name: "focal_outside", pts: pts, focal: edge, focalID: -1})
	return out
}

// sumTieInput is d = 2 only: record 1 dominates record 0 on both axes, yet
// their float coordinate sums are equal, so the heap surfaces record 0
// first (lower ID) and both become live members — a live set that is not a
// staircase. Records 2.. are then tested against it.
func sumTieInput() diffInput {
	lo := vecmath.Point{math.Nextafter(0.75, 0), 0.5}
	hi := vecmath.Point{0.75, math.Nextafter(0.5, 1)}
	if lo.Sum() != hi.Sum() {
		panic("sumTieInput: sums do not tie on this platform")
	}
	pts := []vecmath.Point{lo, hi,
		{0.7, math.Nextafter(0.5, 1)}, // dominated by record 1 only
		{0.7, 0.5},                    // dominated by both
		{0.74, 0.5},
		{0.2, 0.9}, {0.21, 0.9}, {0.9, 0.2}, {0.9, 0.19},
		{0.95, 0.05}, // the focal: everything else is incomparable to it
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		pts = append(pts, vecmath.Point{0.6 + 0.14*rng.Float64(), 0.4 + 0.09*rng.Float64()})
	}
	return diffInput{name: "sum_tie_dominance", pts: pts, focal: pts[9], focalID: 9, noBrute: true}
}

// neighbourInput is d = 2 only, built against Expand's neighbour rule: a
// band five levels deep of a 1/16 lattice, so that points share
// coordinates exactly, with every point of the top level three times over
// and others twice at random. Released entries then meet duplicates of the
// expanded member on either side, neighbours at their own x or y, and the
// ends of the staircase. With tie the band also holds sumTieInput's pair,
// which breaks the staircase, so the same shapes run through the fallback.
// Every record is incomparable to the focal.
func neighbourInput(tie bool) diffInput {
	name := "neighbour_rule"
	var pts []vecmath.Point
	if tie {
		name += "_sum_tie"
		pts = append(pts, sumTieInput().pts[:2]...)
	}
	rng := rand.New(rand.NewSource(16))
	var band []vecmath.Point
	for i := 1; i <= 15; i++ {
		for j := 1; j <= 15; j++ {
			if i+j < 12 || i+j > 16 {
				continue
			}
			copies := 1 + rng.Intn(2)
			if i+j == 16 {
				copies = 3
			}
			for ; copies > 0; copies-- {
				band = append(band, vecmath.Point{float64(i) / 16, float64(j) / 16})
			}
		}
	}
	rng.Shuffle(len(band), func(i, j int) { band[i], band[j] = band[j], band[i] })
	pts = append(append(pts, band...), vecmath.Point{0.99, 0.01})
	focal := len(pts) - 1
	return diffInput{name: name, pts: pts, focal: pts[focal], focalID: int64(focal), noBrute: tie}
}

func recordIDs(recs []Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// driveBoth runs one seeded Skyline/Expand sequence through the oracle and
// the Maintainer, both over tree, and compares, after every call: the records
// returned (IDs, in order, and their points), Accessed, the pages each
// read, and the live set — and holds the live set against the brute-force
// skyline.
func driveBoth(t *testing.T, in diffInput, tree *rstar.Tree, seed int64) {
	t.Helper()
	var refIO, gotIO pager.Tracker
	// Odd seeds run on a new Maintainer, even ones on the one every earlier
	// even seed used — other inputs, other dimensions — poisoned in between.
	got := new(Maintainer)
	if seed%2 == 0 {
		got = &usedMaintainer
		got.Release()
		got.Poison()
	}
	ref, err := refNewForQuery(context.Background(), tree.Reader(&refIO), in.focal, in.focalID)
	if err != nil {
		t.Fatal(err)
	}
	if err = got.Reset(context.Background(), tree.Reader(&gotIO), in.focal, in.focalID); err != nil {
		t.Fatal(err)
	}
	expanded := map[int64]bool{}
	step := 0
	check := func(what string, refAdded, gotAdded []Record) {
		t.Helper()
		if !slices.Equal(recordIDs(refAdded), recordIDs(gotAdded)) {
			t.Fatalf("step %d %s: added %v, oracle %v", step, what, recordIDs(gotAdded), recordIDs(refAdded))
		}
		for _, r := range gotAdded {
			if !r.Point.Equal(in.pts[r.ID]) {
				t.Fatalf("step %d %s: record %d surfaced with point %v, dataset has %v", step, what, r.ID, r.Point, in.pts[r.ID])
			}
		}
		if ref.Accessed() != got.Accessed() {
			t.Fatalf("step %d %s: accessed %d, oracle %d", step, what, got.Accessed(), ref.Accessed())
		}
		if refIO.Reads() != gotIO.Reads() {
			t.Fatalf("step %d %s: %d page reads, oracle %d", step, what, gotIO.Reads(), refIO.Reads())
		}
		refLive, gotLive := ids(ref.Active()), ids(got.Active())
		if !slices.Equal(refLive, gotLive) {
			t.Fatalf("step %d %s: live set %v, oracle %v", step, what, gotLive, refLive)
		}
		if err := got.checkHolders(); err != nil {
			t.Fatalf("step %d %s: %v", step, what, err)
		}
		if !in.noBrute && (step < 4 || step%5 == 0) {
			if want := bruteSkyline(in.pts, in.focal, in.focalID, expanded); !equalSets(gotLive, want) {
				t.Fatalf("step %d %s: live set %v is not the brute-force skyline (%d members)", step, what, gotLive, len(want))
			}
		}
	}
	refFirst, err := ref.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	gotFirst, err := got.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	check("Skyline", refFirst, gotFirst)

	rng := rand.New(rand.NewSource(seed))
	// Three expansion policies, drawn per run: a random live member, the
	// live member with the smallest ID (AA's order within a round), and
	// whole rounds (every member live at the round's start).
	policy := rng.Intn(3)
	budget := 40 + rng.Intn(400)
	var round []int64
	for step = 1; step <= budget; step++ {
		live := ids(ref.Active())
		if len(live) == 0 {
			break
		}
		var victim int64
		switch policy {
		case 0:
			victim = live[rng.Intn(len(live))]
		case 1:
			victim = live[0]
		default:
			if len(round) == 0 {
				round = live
			}
			victim, round = round[0], round[1:]
		}
		refAdded, err := ref.Expand(victim)
		if err != nil {
			t.Fatal(err)
		}
		gotAdded, err := got.Expand(victim)
		if err != nil {
			t.Fatalf("step %d: Expand(%d): %v", step, victim, err)
		}
		expanded[victim] = true
		check(fmt.Sprintf("Expand(%d)", victim), refAdded, gotAdded)
		if step%17 == 0 { // an idle drain surfaces nothing and moves nothing
			again, err := got.Skyline()
			if err != nil || len(again) != 0 {
				t.Fatalf("step %d: idle Skyline returned %v, %v", step, recordIDs(again), err)
			}
			if _, err := got.Expand(victim); err == nil {
				t.Fatalf("step %d: second Expand(%d) accepted", step, victim)
			}
			check("idle", nil, nil)
		}
	}
}

// usedMaintainer is the Maintainer driveBoth resets again and again.
var usedMaintainer Maintainer

// checkHolders walks every live member's parked chain: the holder must
// dominate each entry on it. Expand's neighbour rule is sound only while
// this holds, since it assumes c ≤ r for every c parked under r.
func (m *Maintainer) checkHolders() error {
	for _, member := range m.live {
		for e := m.slots[member].parked; e >= 0; e = m.slots[e].next {
			if !dominates(m.point(member), m.point(e)) {
				return fmt.Errorf("entry %d %v parked under member %d %v, which does not dominate it",
					m.slots[e].id, m.point(e), m.slots[member].id, m.point(member))
			}
		}
	}
	return nil
}

func TestDifferentialAgainstReference(t *testing.T) {
	for d := 2; d <= 4; d++ {
		var inputs []diffInput
		for _, dist := range []dataset.Distribution{dataset.IND, dataset.COR, dataset.ANTI} {
			n := 900 / (d - 1)
			pts := dataset.Generate(dist, n, d, int64(100*d)+int64(dist))
			inputs = append(inputs, diffInput{name: dist.String(), pts: pts, focal: pts[n/3], focalID: int64(n / 3)})
			mid := make(vecmath.Point, d)
			for j := range mid {
				mid[j] = 0.45 + 0.05*float64(j)
			}
			inputs = append(inputs, diffInput{name: dist.String() + "_whatif", pts: pts, focal: mid, focalID: -1})
		}
		inputs = append(inputs, degenerateInputs(d, int64(7*d))...)
		if d == 2 {
			inputs = append(inputs, sumTieInput(), neighbourInput(false), neighbourInput(true))
		}
		for _, in := range inputs {
			// "tree" is bulk-loaded, "records" inserted record by record.
			for _, build := range []struct {
				name  string
				index func(testing.TB, []vecmath.Point) *rstar.Tree
			}{{"tree", smallPageTree}, {"records", insertedTree}} {
				t.Run(fmt.Sprintf("d%d/%s/%s", d, in.name, build.name), func(t *testing.T) {
					tree := build.index(t, in.pts)
					for seed := int64(1); seed <= 4; seed++ {
						if seed == 3 {
							// The rest read a mapped copy, decoding every
							// page into the maintainer's scratch node; seed
							// 4's maintainer arrives with that node poisoned.
							tree = mappedCopy(t, tree)
						}
						driveBoth(t, in, tree, seed)
					}
				})
			}
		}
	}
}

// TestSumTieBreaksStaircase pins what sumTieInput is for: both records of
// the tied pair are live at once although one dominates the other.
func TestSumTieBreaksStaircase(t *testing.T) {
	in := sumTieInput()
	m, err := New(smallPageTree(t, in.pts), in.focal, in.focalID)
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Skyline()
	if err != nil {
		t.Fatal(err)
	}
	live := recordIDs(first)
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	if len(live) < 2 || live[0] != 0 || live[1] != 1 {
		t.Fatalf("first skyline %v: want records 0 and 1 both live", live)
	}
}

// TestNeighbourInputReachesEveryCase pins what neighbourInput is for: over
// expansions of the first, the last and a random staircase member, the
// entries released meet every case the neighbour rule tells apart.
func TestNeighbourInputReachesEveryCase(t *testing.T) {
	in := neighbourInput(false)
	tree := smallPageTree(t, in.pts)
	seen := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		m, err := New(tree, in.focal, in.focalID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Skyline(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; len(m.live) > 0 && step < 300; step++ {
			pos := rng.Intn(len(m.live))
			switch step % 3 {
			case 0:
				pos = 0
			case 1:
				pos = len(m.live) - 1
			}
			if !m.stairs {
				t.Fatal("the neighbour input broke the staircase")
			}
			m.tallyNeighbours(pos, seen)
			if _, err := m.Expand(m.slots[m.live[pos]].id); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("released entries by case: %v", seen)
	for _, c := range []string{"no L", "no R", "L duplicates r", "R duplicates r", "L.x == c.x", "R.y == c.y"} {
		if seen[c] == 0 {
			t.Errorf("no entry released with %s", c)
		}
	}
}

// TestNeighbourRuleQueuesNoDominatedEntry holds the neighbour rule to the
// searches it replaces in the other direction from checkHolders: an entry
// it queues that some live member dominates would cost a heap pop. A
// maintainer whose staircase is switched off, and so re-examines released
// entries against every live member, must pop exactly as often, call by
// call, and surface the same records.
func TestNeighbourRuleQueuesNoDominatedEntry(t *testing.T) {
	pts := dataset.Generate(dataset.ANTI, 900, 2, 11)
	inputs := append(degenerateInputs(2, 14), neighbourInput(false),
		diffInput{name: "ANTI", pts: pts, focal: pts[300], focalID: 300})
	for _, in := range inputs {
		tree := smallPageTree(t, in.pts)
		for seed := int64(1); seed <= 3; seed++ {
			var stairs, flat Maintainer
			for _, m := range []*Maintainer{&stairs, &flat} {
				if err := m.Reset(context.Background(), tree.Reader(nil), in.focal, in.focalID); err != nil {
					t.Fatal(err)
				}
			}
			flat.stairs = false
			same := func(what string, a, b []Record, errA, errB error) {
				t.Helper()
				if errA != nil || errB != nil {
					t.Fatalf("%s %s: %v, %v", in.name, what, errA, errB)
				}
				if !slices.Equal(recordIDs(a), recordIDs(b)) || stairs.pops != flat.pops {
					t.Fatalf("%s seed %d %s: staircase surfaced %v in %d pops, scan %v in %d",
						in.name, seed, what, recordIDs(a), stairs.pops, recordIDs(b), flat.pops)
				}
			}
			a, errA := stairs.Skyline()
			b, errB := flat.Skyline()
			same("Skyline", a, b, errA, errB)
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 200 && len(stairs.live) > 0; step++ {
				id := stairs.slots[stairs.live[rng.Intn(len(stairs.live))]].id
				a, errA := stairs.Expand(id)
				b, errB := flat.Expand(id)
				same(fmt.Sprintf("Expand(%d)", id), a, b, errA, errB)
			}
		}
	}
}

// tallyNeighbours counts, for each entry parked under the member at pos,
// the neighbour cases Expand's re-examination will meet.
func (m *Maintainer) tallyNeighbours(pos int, seen map[string]int) {
	r := m.point(m.live[pos])
	for e := m.slots[m.live[pos]].parked; e >= 0; e = m.slots[e].next {
		c := m.point(e)
		if pos == 0 {
			seen["no L"]++
		} else if l := m.point(m.live[pos-1]); l.Equal(r) {
			seen["L duplicates r"]++
		} else if l[0] == c[0] {
			seen["L.x == c.x"]++
		}
		if pos == len(m.live)-1 {
			seen["no R"]++
		} else if rr := m.point(m.live[pos+1]); rr.Equal(r) {
			seen["R duplicates r"]++
		} else if rr[1] == c[1] {
			seen["R.y == c.y"]++
		}
	}
}
