package repro

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/pager"
	"repro/internal/rstar"
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
// Its R*-tree is the receiver's tree incrementally updated through the
// R* insert/delete machinery — not rebuilt — so Apply costs O(batch ×
// log n) index work plus one page-image copy, not a bulk load. Query
// answers (regions, ranks, witnesses) are bit-identical to those of a
// freshly built dataset over the same record sequence; only cost counters
// that reflect physical index layout (Stats.IO, IncomparableAccessed,
// LP/leaf counters) may differ, because an incrementally maintained tree
// legitimately has a different shape than a bulk-loaded one.
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

	// Copy the index image into a fresh heap store: the original keeps
	// serving unperturbed while the copy is mutated. Page IDs are
	// preserved, so the restored tree is structurally the same index. For
	// an mmap-served parent this copy IS the copy-on-write promotion —
	// mutation never writes through the mapping (pager.Mapped has no write
	// path at all), it materializes a writable image and edits that.
	src := ds.tree.Source()
	store := pager.NewStore(src.PageSize())
	err := src.ForEachPage(func(id pager.PageID, data []byte) error {
		if data == nil {
			return fmt.Errorf("repro: page %d allocated but never written (index not finalized?)", id)
		}
		return store.Restore(id, data)
	})
	if err != nil {
		return nil, err
	}
	// The copied image preserves the parent's page-ID gaps (pages earlier
	// mutations freed); reclaim them so the ID space stays bounded across
	// generations instead of growing by every generation's leftovers.
	store.ReclaimGaps()
	tree, err := rstar.RestoreFrom(store, dim, ds.tree.Root(), ds.tree.Height(), ds.tree.Size(), rstar.Options{})
	if err != nil {
		return nil, err
	}

	// Deletes first, in ascending index order (op order is irrelevant —
	// indexes address the pre-batch dataset — and a fixed order keeps the
	// successor tree, and hence its snapshot bytes, deterministic).
	delOrder := make([]int, 0, len(deleted))
	for idx := range deleted {
		delOrder = append(delOrder, idx)
	}
	sort.Ints(delOrder)
	for _, idx := range delOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok, err := tree.Delete(ds.points[idx], int64(idx))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("repro: record %d missing from index during delete", idx)
		}
	}

	// Re-index the survivors densely. The tree's record IDs are remapped to
	// match, so the successor is indistinguishable — record numbering
	// included — from a dataset freshly built over the same sequence.
	pts := make([]vecmath.Point, 0, n-len(deleted)+len(inserts))
	// Survivor rows of an mmap-served parent alias the mapping; the
	// successor owns no mapping, so it must deep-copy them — otherwise
	// closing the parent would unmap memory the successor still points at.
	survivor := func(p vecmath.Point) vecmath.Point { return p }
	if ds.pointsAliased {
		survivor = vecmath.Point.Clone
	}
	if len(deleted) == 0 {
		for _, p := range ds.points {
			pts = append(pts, survivor(p))
		}
	} else {
		newID := make([]int64, n)
		for i, p := range ds.points {
			if deleted[i] {
				newID[i] = -1
				continue
			}
			newID[i] = int64(len(pts))
			pts = append(pts, survivor(p))
		}
		if err := tree.RemapRecordIDs(func(old int64) int64 { return newID[old] }); err != nil {
			return nil, err
		}
	}

	for _, p := range inserts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := int64(len(pts))
		pts = append(pts, p)
		if err := tree.Insert(p, id); err != nil {
			return nil, err
		}
	}

	if err := tree.Finalize(); err != nil {
		return nil, err
	}
	store.ResetStats()
	store.SetLatency(ds.pageLatency)
	return &Dataset{
		points:         pts,
		tree:           tree,
		quadMaxPartial: ds.quadMaxPartial,
		quadMaxDepth:   ds.quadMaxDepth,
		pageLatency:    ds.pageLatency,
	}, nil
}

// Apply produces a new engine version serving the mutated dataset; see
// Dataset.Apply for the mutation semantics. The receiver keeps serving its
// version untouched — in-flight and future queries against it are
// unaffected — so a serving layer can swap the returned engine in
// atomically and let queries pinned to the old version drain naturally
// (server.Registry.Mutate does exactly that).
//
// The new engine inherits the receiver's parallelism, query defaults and
// cache capacity, with a fresh (empty) result cache: the dataset
// fingerprint changed, so every previously cached result is unreachable by
// construction.
func (e *Engine) Apply(ctx context.Context, ops []Op) (*Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ds, err := e.ds.applyOps(ctx, ops)
	if err != nil {
		return nil, err
	}
	opts := []EngineOption{
		WithParallelism(e.parallel),
		WithCache(e.cacheCap),
	}
	if len(e.defaults) > 0 {
		opts = append(opts, WithQueryDefaults(e.defaults...))
	}
	return NewEngine(ds, opts...)
}
