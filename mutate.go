package repro

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
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
// Its record table shares every chunk of the receiver's that the batch
// leaves alone: Apply copies the chunks its deletes touch and the one its
// inserts go to, and merges neighbours that fit in one chunk. Its R*-tree
// is a fork of the receiver's, updated through the R* insert/delete
// machinery — not rebuilt, and not copied: the two share every page and
// decoded node the batch leaves alone, and the successor writes only the
// nodes it changes. Apply so costs O(batch × log n) index work and
// O(batch) table work, plus one page table and one chunk directory (n/256
// entries) — save that once deletes since the last renumbering pass half
// the records, it rewrites the leaf pages once (see renumber). A successor
// of an mmap-served receiver copies the whole table, since nothing may
// outlive the mapping. Query answers
// (regions, ranks, witnesses) are bit-identical to those of a freshly
// built dataset over the same record sequence; only cost counters that
// reflect physical index layout (Stats.IO, IncomparableAccessed, LP/leaf
// counters) may differ, because an incrementally maintained tree
// legitimately has a different shape than a bulk-loaded one.
//
// The successor inherits the receiver's page size, quad-tree defaults and
// simulated page latency. Its fingerprint is computed from the new
// content, so engine result caches keyed by fingerprint never serve stale
// answers for the mutated dataset. Apply starts that hash on a goroutine
// of its own as soon as the successor's table exists, so with a core idle
// it runs beside the index work and Fingerprint waits for it. Both go
// through one sync.Once: when no core is idle that goroutine may not have
// started by the time Fingerprint is called, and Fingerprint then
// computes the hash on the caller's goroutine (the usual case at
// GOMAXPROCS 1).
func (ds *Dataset) Apply(ops []Op) (*Dataset, error) {
	return ds.applyOps(context.Background(), ops)
}

func (ds *Dataset) applyOps(ctx context.Context, ops []Op) (*Dataset, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("repro: empty mutation batch: %w", ErrBadQuery)
	}
	dels, err := ds.checkBatch(ops)
	if err != nil {
		return nil, err
	}
	if inserts := len(ops) - len(dels); ds.Len()-len(dels)+inserts == 0 {
		return nil, fmt.Errorf("repro: mutation batch would empty the dataset: %w", ErrBadQuery)
	}

	// The table depends only on the receiver's and the batch, so it is
	// built first and hashed while the index is edited. The survivors keep
	// their tree IDs and the inserts take fresh ones above the receiver's
	// largest, so the IDs stay ascending.
	tab := ds.tab.successor(dels, ops, ds.mapping != nil)
	next := &Dataset{
		tab:            tab,
		quadMaxPartial: ds.quadMaxPartial,
		quadMaxDepth:   ds.quadMaxDepth,
		pageLatency:    ds.pageLatency,
	}
	// Inserts take IDs above the largest, so the ID space grows with every
	// insert since the tree's IDs were last record indexes. Once the
	// largest reaches twice the record count, renumber: more deletes than
	// half the records have gone by since the IDs were dense, and they pay
	// for the pass over the leaf pages. The IDs, and WriteSnapshot's
	// relabelling table, so stay below 2n.
	renumbered := tab.lastID() >= 2*int64(tab.n)
	if renumbered {
		next.tab = tab.withIndexIDs()
	}
	go next.fpOnce.Do(next.hash)

	tree, err := ds.forkTree()
	if err != nil {
		return nil, err
	}
	// Deletes first, in ascending index order (op order is irrelevant —
	// indexes address the pre-batch dataset — and a fixed order keeps the
	// successor tree, and hence its snapshot bytes, deterministic).
	for _, idx := range dels {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok, err := tree.Delete(ds.tab.row(idx), ds.tab.id(idx))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("repro: record %d missing from index during delete", idx)
		}
	}
	id := ds.tab.lastID()
	for _, op := range ops {
		if op.Kind != OpInsert {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id++
		if err := tree.Insert(op.Point, id); err != nil {
			return nil, err
		}
	}
	if err := tree.Finalize(); err != nil {
		return nil, err
	}
	if renumbered {
		if tree, err = renumber(tree, &tab); err != nil {
			return nil, err
		}
	}
	tree.Source().SetLatency(ds.pageLatency)
	next.tree = tree
	return next, nil
}

// checkBatch validates a batch against the receiver and returns the
// indexes it deletes, ascending.
func (ds *Dataset) checkBatch(ops []Op) ([]int, error) {
	dim, n := ds.Dim(), ds.Len()
	var dels []int
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
		case OpDelete:
			if op.Index < 0 || op.Index >= n {
				return nil, fmt.Errorf("repro: op %d deletes index %d, out of range [0,%d): %w",
					i, op.Index, n, ErrBadQuery)
			}
			if dels == nil {
				dels = make([]int, 0, len(ops))
			}
			dels = append(dels, op.Index)
		default:
			return nil, fmt.Errorf("repro: op %d has unknown kind %d: %w", i, op.Kind, ErrBadQuery)
		}
	}
	slices.Sort(dels)
	for k := 1; k < len(dels); k++ {
		if dels[k] == dels[k-1] {
			return nil, fmt.Errorf("repro: the batch deletes index %d twice: %w", dels[k], ErrBadQuery)
		}
	}
	return dels, nil
}

// successor returns the table after deleting the records at dels
// (ascending) and appending the batch's inserts in op order, with tree IDs
// above t's largest. It shares every chunk the batch leaves alone, unless
// copyAll: the chunks of an mmap-served table are views of the mapping.
func (t *table) successor(dels []int, ops []Op, copyAll bool) table {
	size := len(t.chunks) + 1 + (len(ops)-len(dels))/chunkCap
	b := tableBuilder{table: table{dim: t.dim, chunks: make([]chunk, 0, size), starts: make([]int, 0, size)}}
	d := 0
	for k, c := range t.chunks {
		lo, hi := t.starts[k], t.starts[k]+len(c.ids)
		if !copyAll && (d == len(dels) || dels[d] >= hi) {
			b.push(c, false)
			continue
		}
		nc := newChunk(t.dim)
		from := 0
		for ; d < len(dels) && dels[d] < hi; d++ {
			nc.add(c, from, dels[d]-lo, t.dim)
			from = dels[d] - lo + 1
		}
		nc.add(c, from, len(c.ids), t.dim)
		b.push(nc, true)
	}
	id := t.lastID()
	for _, op := range ops {
		if op.Kind == OpInsert {
			id++
			b.insert(op.Point, id)
		}
	}
	return b.table
}

// tableBuilder assembles a table chunk by chunk, keeping no two
// neighbouring chunks that fit in one.
type tableBuilder struct {
	table
	// fresh says the last chunk was made by this builder, so it may still
	// be written.
	fresh bool
}

// push appends chunk c, merging it into the last chunk when the two fit
// in one; a merge writes into a chunk this builder made. fresh says c was
// made by this builder.
func (b *tableBuilder) push(c chunk, fresh bool) {
	n := len(c.ids)
	if n == 0 {
		return
	}
	k := len(b.chunks) - 1
	if k < 0 || len(b.chunks[k].ids)+n > chunkCap {
		b.chunks = append(b.chunks, c)
		b.starts = append(b.starts, b.n)
		b.n += n
		b.fresh = fresh
		return
	}
	last := &b.chunks[k]
	if !b.fresh {
		merged := newChunk(b.dim)
		merged.add(*last, 0, len(last.ids), b.dim)
		*last = merged
	}
	last.add(c, 0, n, b.dim)
	b.n += n
	b.fresh = true
}

// insert appends one record, starting a chunk when the last is full and
// copying the last when it is shared.
func (b *tableBuilder) insert(p []float64, id int64) {
	k := len(b.chunks) - 1
	switch {
	case k < 0 || len(b.chunks[k].ids) == chunkCap:
		b.chunks = append(b.chunks, newChunk(b.dim))
		b.starts = append(b.starts, b.n)
		k++
	case !b.fresh:
		c := newChunk(b.dim)
		c.add(b.chunks[k], 0, len(b.chunks[k].ids), b.dim)
		b.chunks[k] = c
	}
	b.fresh = true
	c := &b.chunks[k]
	c.coords = append(c.coords, p...)
	c.ids = append(c.ids, id)
	b.n++
}

// withIndexIDs returns t with every record's tree ID its index; the
// coordinates stay shared.
func (t table) withIndexIDs() table {
	ids := identityIDs(t.n)
	chunks := make([]chunk, len(t.chunks))
	for k, c := range t.chunks {
		lo, hi := t.starts[k], t.starts[k]+len(c.ids)
		chunks[k] = chunk{coords: c.coords, ids: ids[lo:hi:hi]}
	}
	t.chunks = chunks
	return t
}

// renumber rewrites the leaf pages of a finalized heap tree so that each
// record's tree ID in t becomes its index, and returns the tree decoded
// from them. Each relabelled leaf is a new page the store adopts.
func renumber(tree *rstar.Tree, t *table) (*rstar.Tree, error) {
	store := tree.Source().(*pager.Store)
	var leaves []snapshot.Page
	err := store.ForEachPage(func(id pager.PageID, data []byte) error {
		if rstar.IsLeafPage(data) {
			leaves = append(leaves, snapshot.Page{ID: int64(id), Data: data})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	index, err := t.indexes()
	if err != nil {
		return nil, err
	}
	relabel := relabelLeaves(index)
	for _, p := range leaves {
		data, err := relabel(p, make([]byte, len(p.Data)))
		if err != nil {
			return nil, err
		}
		if err := store.Adopt(pager.PageID(p.ID), data); err != nil {
			return nil, err
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
