package rstar

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// bulkFill is the target node utilisation for bulk loading.
const bulkFill = 0.8

// BulkLoad replaces the tree contents with the given points, packed with the
// Sort-Tile-Recursive scheme (Leutenegger et al.), which is dramatically
// faster than repeated insertion for the multi-hundred-thousand-record
// experiment datasets. Construction I/O is not counted. Record IDs are the
// point indices unless ids is non-nil.
func (t *Tree) BulkLoad(points []vecmath.Point, ids []int64) error {
	if err := t.writable(); err != nil {
		return err
	}
	if ids != nil && len(ids) != len(points) {
		return fmt.Errorf("rstar: %d ids for %d points", len(ids), len(points))
	}
	for i, p := range points {
		if len(p) != t.dim {
			return fmt.Errorf("rstar: point %d has dim %d, tree dim %d", i, len(p), t.dim)
		}
	}
	// Reset the tree, returning the pages of any previous contents to the
	// store so a bulk-loaded store holds exactly the live nodes (snapshots
	// persist every allocated page, so leaks would surface there).
	for id := range t.cache {
		t.store.Free(id)
	}
	t.cache = make(map[pager.PageID]*Node)
	t.dirty = make(map[pager.PageID]struct{})
	t.size = int64(len(points))
	if len(points) == 0 {
		root := t.newNode(0)
		t.root = root.ID
		t.height = 1
		return nil
	}

	entries := make([]Entry, len(points))
	for i, p := range points {
		id := int64(i)
		if ids != nil {
			id = ids[i]
		}
		pp := p.Clone()
		entries[i] = Entry{Rect: geom.Rect{Lo: pp, Hi: pp}, RecordID: id, Count: 1}
	}

	level := 0
	capPerNode := int(bulkFill * float64(t.maxLeaf))
	if capPerNode < 2 {
		capPerNode = 2
	}
	for {
		nodes := t.strPack(entries, level, capPerNode)
		if len(nodes) == 1 {
			t.root = nodes[0].ID
			t.height = level + 1
			return nil
		}
		entries = make([]Entry, len(nodes))
		for i, n := range nodes {
			entries[i] = Entry{Rect: n.MBR(), Child: n.ID, Count: n.subtreeCount()}
		}
		level++
		capPerNode = int(bulkFill * float64(t.maxBranch))
		if capPerNode < 2 {
			capPerNode = 2
		}
	}
}

// strPack tiles entries into nodes of the given level using the STR scheme:
// recursively sort by successive axes and cut into vertical "slabs".
func (t *Tree) strPack(entries []Entry, level, capPerNode int) []*Node {
	nNodes := (len(entries) + capPerNode - 1) / capPerNode
	groups := t.strSlice(entries, 0, nNodes)
	nodes := make([]*Node, 0, len(groups))
	for _, g := range groups {
		n := t.newNode(level)
		n.Entries = append(n.Entries, g...)
		nodes = append(nodes, n)
	}
	return nodes
}

// strSlice recursively partitions entries across axes. nGroups is the total
// number of node-sized groups this slice must produce.
func (t *Tree) strSlice(entries []Entry, axis, nGroups int) [][]Entry {
	if nGroups <= 1 || len(entries) == 0 {
		return [][]Entry{entries}
	}
	if axis == t.dim-1 {
		// Final axis: cut into nGroups equal runs after sorting.
		sortEntriesByCenter(entries, axis)
		return cutRuns(entries, nGroups)
	}
	// Number of slabs along this axis: ceil(nGroups^(1/(remaining axes))).
	remaining := t.dim - axis
	slabs := int(math.Ceil(math.Pow(float64(nGroups), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	sortEntriesByCenter(entries, axis)
	runs := cutRuns(entries, slabs)
	perSlab := (nGroups + len(runs) - 1) / len(runs)
	var groups [][]Entry
	for _, run := range runs {
		groups = append(groups, t.strSlice(run, axis+1, perSlab)...)
	}
	return groups
}

func sortEntriesByCenter(entries []Entry, axis int) {
	sort.Slice(entries, func(i, j int) bool {
		ci := entries[i].Rect.Lo[axis] + entries[i].Rect.Hi[axis]
		cj := entries[j].Rect.Lo[axis] + entries[j].Rect.Hi[axis]
		return ci < cj
	})
}

// cutRuns splits a slice into n nearly-equal contiguous runs.
func cutRuns(entries []Entry, n int) [][]Entry {
	if n < 1 {
		n = 1
	}
	size := (len(entries) + n - 1) / n
	var runs [][]Entry
	for start := 0; start < len(entries); start += size {
		end := start + size
		if end > len(entries) {
			end = len(entries)
		}
		runs = append(runs, entries[start:end])
	}
	return runs
}
