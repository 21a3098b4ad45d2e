package rstar

import (
	"fmt"
	"math"
	"sort"

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

	src := &Node{dim: t.dim, coords: make([]float64, 0, len(points)*t.dim), ids: make([]int64, len(points))}
	for i, p := range points {
		src.coords = append(src.coords, p...)
		src.ids[i] = int64(i)
	}
	if ids != nil {
		copy(src.ids, ids)
	}

	level := 0
	capPerNode := max(2, int(bulkFill*float64(t.maxLeaf)))
	for {
		nodes := t.strPack(src, level, capPerNode)
		if len(nodes) == 1 {
			t.root = nodes[0].ID
			t.height = level + 1
			return nil
		}
		level++
		src = &Node{Level: level, dim: t.dim}
		src.reserve(len(nodes))
		for _, n := range nodes {
			src.pushChild(n)
		}
		capPerNode = max(2, int(bulkFill*float64(t.maxBranch)))
	}
}

// strPack tiles the entries of src into nodes of the given level using the
// STR scheme: recursively sort by successive axes and cut into vertical
// "slabs". The sorts order a permutation of src's entries, as split does,
// by each entry's Lo + Hi on the axis, summed once up front.
func (t *Tree) strPack(src *Node, level, capPerNode int) []*Node {
	n := src.Len()
	perm, centers := make([]int, n), make([][]float64, t.dim)
	flat := make([]float64, t.dim*n)
	for axis := range centers {
		centers[axis] = flat[axis*n : (axis+1)*n]
	}
	for i := range perm {
		perm[i] = i
		for axis, r := range centers {
			r[i] = src.Lo(i)[axis] + src.Hi(i)[axis]
		}
	}
	groups := t.strSlice(centers, perm, 0, (n+capPerNode-1)/capPerNode)
	nodes := make([]*Node, 0, len(groups))
	for _, g := range groups {
		node := t.newNode(level)
		node.reserve(len(g))
		for _, i := range g {
			node.pushFrom(src, i)
		}
		nodes = append(nodes, node)
	}
	return nodes
}

// strSlice recursively partitions the entries perm lists across axes.
// nGroups is the total number of node-sized groups this slice must produce.
func (t *Tree) strSlice(centers [][]float64, perm []int, axis, nGroups int) [][]int {
	if nGroups <= 1 || len(perm) == 0 {
		return [][]int{perm}
	}
	center := centers[axis]
	sort.Slice(perm, func(i, j int) bool { return center[perm[i]] < center[perm[j]] })
	if axis == t.dim-1 {
		// Final axis: cut into nGroups equal runs after sorting.
		return cutRuns(perm, nGroups)
	}
	// Number of slabs along this axis: ceil(nGroups^(1/(remaining axes))).
	remaining := t.dim - axis
	slabs := max(1, int(math.Ceil(math.Pow(float64(nGroups), 1/float64(remaining)))))
	runs := cutRuns(perm, slabs)
	perSlab := (nGroups + len(runs) - 1) / len(runs)
	var groups [][]int
	for _, run := range runs {
		groups = append(groups, t.strSlice(centers, run, axis+1, perSlab)...)
	}
	return groups
}

// cutRuns splits a slice into n nearly-equal contiguous runs.
func cutRuns(perm []int, n int) [][]int {
	n = max(1, n)
	size := (len(perm) + n - 1) / n
	var runs [][]int
	for start := 0; start < len(perm); start += size {
		runs = append(runs, perm[start:min(start+size, len(perm))])
	}
	return runs
}
