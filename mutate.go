package repro

import (
	"context"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// OpKind distinguishes the point mutations of an Apply batch.
type OpKind int

const (
	// OpInsert adds a new record (Op.Point) to the dataset.
	OpInsert OpKind = iota + 1
	// OpDelete removes the record at Op.Index.
	OpDelete
)

// Op is one point mutation. Use InsertOp / DeleteOp to construct.
type Op struct {
	// Kind selects the mutation.
	Kind OpKind
	// Point is the record to insert (OpInsert); it must have the dataset's
	// dimensionality and finite coordinates.
	Point []float64
	// Index is the record to delete (OpDelete). All indexes in a batch
	// refer to the dataset as it was when Apply was called — an op never
	// sees the effect of an earlier op in the same batch, and a record
	// inserted by the batch cannot be deleted by it.
	Index int
}

// InsertOp returns an Op inserting the given record.
func InsertOp(point []float64) Op { return Op{Kind: OpInsert, Point: point} }

// DeleteOp returns an Op deleting record index.
func DeleteOp(index int) Op { return Op{Kind: OpDelete, Index: index} }

// Apply produces a new dataset reflecting a batch of point mutations,
// leaving the receiver untouched (datasets are immutable; concurrent
// queries against the original are unaffected). The batch is atomic: any
// invalid op — an unknown kind, an insert of the wrong dimensionality or
// with non-finite coordinates, a delete index out of range, a duplicate
// delete, or a batch that would empty the dataset — fails the whole call
// with an ErrBadQuery-wrapped error and no new dataset.
//
// The successor's records are the survivors in their original order
// followed by the inserted points in op order, re-indexed densely from 0.
// Its R*-tree is a fork of the receiver's, updated through the R*
// insert/delete machinery — not rebuilt, and not copied: the two share
// every page and decoded node the batch leaves alone, and the successor
// writes only the nodes it changes. Apply so costs O(batch × log n) index
// work plus O(n) for the successor's record table, with no per-page work
// beyond one page table — save that once deletes since the last
// renumbering pass half the records, it rewrites the leaf pages once (see
// renumber). Query answers (regions, ranks, witnesses) are
// bit-identical to those of a freshly built dataset over the same record
// sequence; only cost counters that reflect physical index layout
// (Stats.IO, IncomparableAccessed, LP/leaf counters) may differ, because
// an incrementally maintained tree legitimately has a different shape than
// a bulk-loaded one.
//
// The successor inherits the receiver's page size, quad-tree defaults and
// simulated page latency. Its fingerprint is recomputed from the new
// content, so engine result caches keyed by fingerprint never serve stale
// answers for the mutated dataset.
func (ds *Dataset) Apply(ops []Op) (*Dataset, error) {
	return ds.applyOps(context.Background(), ops)
}

func (ds *Dataset) applyOps(ctx context.Context, ops []Op) (*Dataset, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("repro: empty mutation batch: %w", ErrBadQuery)
	}
	dim := ds.Dim()
	n := len(ds.points)
	deleted := make(map[int]bool)
	var inserts []vecmath.Point
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			if len(op.Point) != dim {
				return nil, fmt.Errorf("repro: op %d inserts a %d-attribute record into a %d-dimensional dataset: %w",
					i, len(op.Point), dim, ErrBadQuery)
			}
			for j, v := range op.Point {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("repro: op %d attribute %d is %v; coordinates must be finite: %w",
						i, j, v, ErrBadQuery)
				}
			}
			inserts = append(inserts, vecmath.Point(op.Point).Clone())
		case OpDelete:
			if op.Index < 0 || op.Index >= n {
				return nil, fmt.Errorf("repro: op %d deletes index %d, out of range [0,%d): %w",
					i, op.Index, n, ErrBadQuery)
			}
			if deleted[op.Index] {
				return nil, fmt.Errorf("repro: op %d deletes index %d twice in one batch: %w",
					i, op.Index, ErrBadQuery)
			}
			deleted[op.Index] = true
		default:
			return nil, fmt.Errorf("repro: op %d has unknown kind %d: %w", i, op.Kind, ErrBadQuery)
		}
	}
	if n-len(deleted)+len(inserts) == 0 {
		return nil, fmt.Errorf("repro: mutation batch would empty the dataset: %w", ErrBadQuery)
	}

	tree, err := ds.forkTree()
	if err != nil {
		return nil, err
	}

	// Deletes first, in ascending index order (op order is irrelevant —
	// indexes address the pre-batch dataset — and a fixed order keeps the
	// successor tree, and hence its snapshot bytes, deterministic).
	delOrder := slices.Sorted(maps.Keys(deleted))
	for _, idx := range delOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok, err := tree.Delete(ds.points[idx], ds.treeID(idx))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("repro: record %d missing from index during delete", idx)
		}
	}

	// The survivors keep their tree IDs and the inserts take fresh ones
	// above the receiver's largest, so the successor's slots stay
	// ascending. They stay nil (the identity) while nothing has been
	// deleted, and return to nil when they end at len−1 — ascending,
	// distinct and non-negative, they are then 0, 1, 2, ….
	total := n - len(deleted) + len(inserts)
	pts := make([]vecmath.Point, 0, total)
	var slots []int64
	if ds.slots != nil || len(deleted) > 0 {
		slots = make([]int64, 0, total)
	}
	from := 0
	for _, idx := range append(delOrder, n) {
		pts = append(pts, ds.points[from:idx]...)
		switch {
		case ds.slots != nil:
			slots = append(slots, ds.slots[from:idx]...)
		case slots != nil:
			for i := from; i < idx; i++ {
				slots = append(slots, int64(i))
			}
		}
		from = idx + 1
	}
	if ds.pointsAliased {
		// Survivor rows of an mmap-served receiver alias its mapping; the
		// successor owns no mapping, so it copies them — otherwise closing
		// the receiver would unmap memory the successor still points at.
		flat := make([]float64, len(pts)*dim)
		for i, p := range pts {
			row := flat[i*dim : (i+1)*dim : (i+1)*dim]
			copy(row, p)
			pts[i] = row
		}
	}
	nextID := ds.treeID(n-1) + 1
	for k, p := range inserts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := nextID + int64(k)
		pts = append(pts, p)
		if slots != nil {
			slots = append(slots, id)
		}
		if err := tree.Insert(p, id); err != nil {
			return nil, err
		}
	}
	if slots != nil && slots[len(slots)-1] == int64(len(slots)-1) {
		slots = nil
	}

	if err := tree.Finalize(); err != nil {
		return nil, err
	}
	// Inserts take IDs above the largest, so the ID space grows with every
	// insert since the tree's IDs were last record indexes. Once the
	// largest reaches twice the record count, renumber: more deletes than
	// half the records have gone by since the IDs were dense, and they pay
	// for the pass over the leaf pages. The IDs, and WriteSnapshot's
	// relabelling table, so stay below 2n.
	if slots != nil && slots[len(slots)-1] >= 2*int64(len(slots)) {
		if tree, err = renumber(tree, slots); err != nil {
			return nil, err
		}
		slots = nil
	}
	src := tree.Source()
	src.ResetStats()
	src.SetLatency(ds.pageLatency)
	return &Dataset{
		points:         pts,
		tree:           tree,
		slots:          slots,
		quadMaxPartial: ds.quadMaxPartial,
		quadMaxDepth:   ds.quadMaxDepth,
		pageLatency:    ds.pageLatency,
	}, nil
}

// renumber rewrites the leaf pages of a finalized heap tree so that record
// i's tree ID slots[i] becomes i, and returns the tree decoded from them.
func renumber(tree *rstar.Tree, slots []int64) (*rstar.Tree, error) {
	store := tree.Source().(*pager.Store)
	var pages []snapshot.Page
	err := store.ForEachPage(func(id pager.PageID, data []byte) error {
		pages = append(pages, snapshot.Page{ID: int64(id), Data: data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := relabelLeaves(pages, slots); err != nil {
		return nil, err
	}
	for _, p := range pages {
		if rstar.IsLeafPage(p.Data) {
			if err := store.Write(pager.PageID(p.ID), p.Data); err != nil {
				return nil, err
			}
		}
	}
	return rstar.RestoreFrom(store, tree.Dim(), tree.Root(), tree.Height(), tree.Size(), rstar.Options{})
}

// forkTree returns a writable fork of the dataset's index (see
// rstar.Tree.Fork). A mapped index is first promoted to the heap — its
// pages copied into a heap store and decoded — because nothing may write
// through, or outlive, the mapping; the promoted tree then forks like any
// other.
func (ds *Dataset) forkTree() (*rstar.Tree, error) {
	tree := ds.tree
	store, ok := tree.Source().(*pager.Store)
	if !ok {
		src := tree.Source()
		store = pager.NewStore(src.PageSize())
		if err := src.ForEachPage(store.Restore); err != nil {
			return nil, err
		}
		var err error
		tree, err = rstar.RestoreFrom(store, ds.Dim(), tree.Root(), tree.Height(), tree.Size(), rstar.Options{})
		if err != nil {
			return nil, err
		}
	}
	return tree.Fork(store.Clone())
}

// Apply produces a new engine version serving the mutated dataset; see
// Dataset.Apply for the mutation semantics. The receiver keeps serving its
// version untouched — in-flight and future queries against it are
// unaffected — so a serving layer can swap the returned engine in
// atomically and let queries pinned to the old version drain naturally
// (server.Registry.Mutate does exactly that).
//
// The new engine inherits the receiver's parallelism and cache capacity,
// with a fresh (empty) result cache: the dataset fingerprint changed, so
// every previously cached result is unreachable by construction.
func (e *Engine) Apply(ctx context.Context, ops []Op) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ds, err := e.ds.applyOps(ctx, ops)
	if err != nil {
		return nil, err
	}
	return NewEngine(ds, WithParallelism(e.parallel), WithCache(e.cacheCap))
}
