// Package repro is a production-quality Go implementation of the Maximum
// Rank Query (MaxRank) of Mouratidis, Zhang and Pang, "Maximum Rank Query",
// PVLDB 8(12):1554–1565, VLDB 2015.
//
// Given a dataset of d-dimensional records and a focal record p, MaxRank
// computes k*, the best (smallest) rank p can achieve under any linear
// scoring function with positive weights, together with every region of the
// preference space where that rank is attained. The incremental variant
// iMaxRank(τ) reports the regions where p ranks within k*+τ.
//
// The package bundles everything the paper's system depends on, implemented
// from scratch on the standard library alone: an aggregate R*-tree over a
// simulated page store, the BBS skyline algorithm with the paper's implicit
// half-space subsumption, an augmented quad-tree over the reduced query
// space, a within-leaf arrangement-cell enumerator, and a condensed-tableau
// simplex LP solver that fills the role Qhull plays in the authors'
// implementation.
//
// Quick start:
//
//	ds, _ := repro.NewDataset(points)              // [][]float64, one record per row
//	eng, _ := repro.NewEngine(ds)                  // safe for concurrent queries
//	res, _ := eng.Query(context.Background(), 17)  // MaxRank of record 17
//	fmt.Println(res.KStar, len(res.Regions))       // best rank and its regions
//	q := res.Regions[0].QueryVector                // a preference achieving it
package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mmap"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// Dataset is an indexed collection of records. It is built once and then
// queried any number of times through an Engine; each query reports its
// own page accesses in Stats.IO.
//
// The records live in a persistent table of chunks of at most chunkCap
// records, each holding its records' coordinates row-major and their tree
// IDs. Versions derived by Apply share every chunk their batch left alone.
//
// Records are addressed two ways. A record index is the record's position
// in the dataset, 0..Len()-1, and is what every public API speaks. A tree
// ID is the record ID the R*-tree's leaf entries hold. The two coincide in
// a built or loaded dataset, but Apply keeps the tree IDs its parent gave
// the surviving records — renumbering them would rewrite nearly every leaf
// — so after a delete they differ. The table keeps each record's tree ID,
// ascending, and the query boundary translates: focal indexes go in as
// tree IDs, OutrankIDs come out as indexes. Because the mapping keeps
// order, every sort and comparison of IDs inside a query is unchanged.
// Snapshots always hold record indexes (see WriteSnapshot).
type Dataset struct {
	tab table
	// tree is the index. Its page source is a heap *pager.Store for built
	// or heap-loaded datasets, a read-only pager.Mapped view for datasets
	// served straight from a memory-mapped snapshot.
	tree *rstar.Tree

	// quadMaxPartial and quadMaxDepth are the dataset's default quad-tree
	// partitioning parameters (0 = library default). Every query uses them,
	// and they persist in snapshots so a served dataset keeps the
	// partitioning it was built for.
	quadMaxPartial int
	quadMaxDepth   int

	// pageLatency records the simulated page latency the dataset was
	// configured with, so a mutation (Dataset.Apply) can reproduce it on the
	// successor dataset.
	pageLatency time.Duration

	// loadedVersion and loadedFloat32 say what file this dataset was loaded
	// from (0 = built in process or derived by Apply). They are reported by
	// Storage and consulted by nothing: every snapshot is written as
	// float64 v2.
	loadedVersion int
	loadedFloat32 bool

	// mapping owns the mmap backing when the dataset serves zero-copy from
	// a v2 snapshot (nil otherwise); the pages alias it, and so do the
	// chunks' coordinates unless the file holds float32 points, so it must
	// outlive the dataset.
	mapping *mmap.Mapping

	// fpOnce guards fp. Apply starts it on a goroutine of its own, unless
	// Fingerprint gets there first; every other dataset runs it on the
	// first Fingerprint call.
	fpOnce sync.Once
	fp     string
}

// chunkCap is the most records a chunk of the record table holds.
const chunkCap = 256

// chunk is a run of consecutive records. A chunk is never written once a
// table holds it, so tables share chunks freely.
type chunk struct {
	coords []float64 // row-major, dim values a record
	ids    []int64   // tree IDs, ascending
}

// newChunk returns an empty chunk with room for chunkCap records, made by
// one pointer-free allocation: the IDs sit in the coordinates' block.
func newChunk(dim int) chunk {
	buf := make([]float64, chunkCap*(dim+1))
	ids := unsafe.Slice((*int64)(unsafe.Pointer(&buf[chunkCap*dim])), chunkCap)
	return chunk{coords: buf[: 0 : chunkCap*dim], ids: ids[:0]}
}

// add appends records from..to of src to c, which must have room.
func (c *chunk) add(src chunk, from, to, dim int) {
	c.coords = append(c.coords, src.coords[from*dim:to*dim]...)
	c.ids = append(c.ids, src.ids[from:to]...)
}

// table is one version's record table: its chunks in record order, with
// starts[k] the index of chunk k's first record. Tree IDs ascend across
// chunks, and no two neighbouring chunks fit in one.
type table struct {
	dim    int
	n      int
	chunks []chunk
	starts []int
}

// flatTable returns the table of n records whose coordinates are flat,
// row-major, and whose tree IDs are their indexes. Its chunks are views of
// flat, which must not change afterwards.
func flatTable(flat []float64, dim int) table {
	n := len(flat) / dim
	ids := identityIDs(n)
	t := table{dim: dim, n: n}
	for lo := 0; lo < n; lo += chunkCap {
		hi := min(lo+chunkCap, n)
		t.chunks = append(t.chunks, chunk{coords: flat[lo*dim : hi*dim : hi*dim], ids: ids[lo:hi:hi]})
		t.starts = append(t.starts, lo)
	}
	return t
}

// identity holds 0, 1, 2, …: the tree IDs of every built or loaded
// dataset, which their chunks view rather than each holding a copy. It
// only grows, and a grown array never changes.
var identity struct {
	sync.Mutex
	ids []int64
}

// identityIDs returns 0..n-1.
func identityIDs(n int) []int64 {
	identity.Lock()
	defer identity.Unlock()
	if len(identity.ids) < n {
		ids := make([]int64, max(n, 2*len(identity.ids)))
		for i := range ids {
			ids[i] = int64(i)
		}
		identity.ids = ids
	}
	return identity.ids[:n:n]
}

// locate returns the chunk holding record i and i's offset in it.
func (t *table) locate(i int) (k, j int) {
	k, found := slices.BinarySearch(t.starts, i)
	if !found {
		k--
	}
	return k, i - t.starts[k]
}

// row returns record i's coordinates, aliasing the table.
func (t *table) row(i int) vecmath.Point {
	k, j := t.locate(i)
	return t.chunks[k].coords[j*t.dim : (j+1)*t.dim : (j+1)*t.dim]
}

// id returns record i's tree ID.
func (t *table) id(i int) int64 {
	k, j := t.locate(i)
	return t.chunks[k].ids[j]
}

// lastID returns the largest tree ID, the last record's.
func (t *table) lastID() int64 {
	ids := t.chunks[len(t.chunks)-1].ids
	return ids[len(ids)-1]
}

// indexes returns the table from tree ID to record index: record i's tree
// ID maps to i. A record index takes 4 bytes, so a table of more than
// 1<<32 records has none.
func (t *table) indexes() ([]uint32, error) {
	if int64(t.n) > math.MaxUint32+1 {
		return nil, fmt.Errorf("repro: %d records have indexes beyond 32 bits", t.n)
	}
	index := make([]uint32, t.lastID()+1)
	for k, c := range t.chunks {
		for j, id := range c.ids {
			index[id] = uint32(t.starts[k] + j)
		}
	}
	return index, nil
}

// DatasetOption configures dataset construction.
type DatasetOption func(*datasetConfig)

type datasetConfig struct {
	pageSize       int
	noMmap         bool
	pageLatency    time.Duration
	quadMaxPartial int
	quadMaxDepth   int
}

// WithPageSize sets the simulated disk page size in bytes (default 4096,
// matching the paper's experimental setup).
func WithPageSize(bytes int) DatasetOption {
	return func(c *datasetConfig) { c.pageSize = bytes }
}

// WithPageLatency makes every query-time page access block for d,
// simulating the latency of a disk-resident index. Index construction is
// unaffected. Concurrent queries overlap these waits, so an Engine with
// parallelism > 1 recovers most of the simulated I/O time.
func WithPageLatency(d time.Duration) DatasetOption {
	return func(c *datasetConfig) { c.pageLatency = d }
}

// WithMmap controls whether LoadSnapshotFile serves a snapshot directly
// from a read-only memory mapping (the default) or verifies it in full and
// copies it onto the heap. It has no effect on legacy v1 files, which are
// not mappable, or on LoadSnapshot, which reads a stream.
func WithMmap(on bool) DatasetOption {
	return func(c *datasetConfig) { c.noMmap = !on }
}

// WithQuadDefaults sets the dataset's default quad-tree partitioning: the
// leaf split threshold on |Pl| and the depth cap (0 keeps the library
// defaults; values must lie in [0, snapshot.MaxQuadParam] — dataset
// construction rejects anything else). Every query on the dataset uses
// these values, and WriteSnapshot persists them, so an operator-tuned
// partitioning survives a snapshot/load cycle.
func WithQuadDefaults(maxPartial, maxDepth int) DatasetOption {
	return func(c *datasetConfig) {
		c.quadMaxPartial = maxPartial
		c.quadMaxDepth = maxDepth
	}
}

// newDatasetConfig applies opts over the defaults.
func newDatasetConfig(opts []DatasetOption) datasetConfig {
	var cfg datasetConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// NewDataset indexes the given records (one row per record; all rows must
// share the same dimensionality d >= 2, attribute domain conventionally
// [0,1]).
func NewDataset(points [][]float64, opts ...DatasetOption) (*Dataset, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("repro: empty dataset")
	}
	dim := len(points[0])
	if dim < 2 {
		return nil, fmt.Errorf("repro: dimensionality %d < 2", dim)
	}
	pts := make([]vecmath.Point, len(points))
	for i, row := range points {
		if len(row) != dim {
			return nil, fmt.Errorf("repro: record %d has %d attributes, want %d", i, len(row), dim)
		}
		pts[i] = row
	}
	return buildDataset(pts, newDatasetConfig(opts))
}

// checkFinite rejects NaN and ±Inf coordinates. A single NaN silently
// poisons everything downstream — LP feasibility tests, score ordering,
// BBS dominance pruning and the dataset fingerprint — so non-finite input
// must fail at the door, not corrupt answers later.
func checkFinite(flat []float64, dim int) error {
	for k, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("repro: record %d attribute %d is %v; coordinates must be finite", k/dim, k%dim, v)
		}
	}
	return nil
}

func buildDataset(pts []vecmath.Point, cfg datasetConfig) (*Dataset, error) {
	// Enforce the persistable range up front: a default outside it would
	// build a whole index only to fail later at WriteSnapshot with an
	// error blaming the snapshot format.
	if cfg.quadMaxPartial < 0 || cfg.quadMaxPartial > snapshot.MaxQuadParam ||
		cfg.quadMaxDepth < 0 || cfg.quadMaxDepth > snapshot.MaxQuadParam {
		return nil, fmt.Errorf("repro: quad-tree defaults (%d, %d) out of [0, %d]",
			cfg.quadMaxPartial, cfg.quadMaxDepth, snapshot.MaxQuadParam)
	}
	flat := dataset.Flatten(pts)
	if err := checkFinite(flat, len(pts[0])); err != nil {
		return nil, err
	}
	store := pager.NewStore(cfg.pageSize)
	tree, err := rstar.New(store, len(pts[0]), rstar.Options{})
	if err != nil {
		return nil, err
	}
	if err := tree.BulkLoad(pts, nil); err != nil {
		return nil, err
	}
	if err := tree.Finalize(); err != nil {
		return nil, err
	}
	store.SetLatency(cfg.pageLatency)
	return &Dataset{
		tab:            flatTable(flat, len(pts[0])),
		tree:           tree,
		quadMaxPartial: cfg.quadMaxPartial,
		quadMaxDepth:   cfg.quadMaxDepth,
		pageLatency:    cfg.pageLatency,
	}, nil
}

// GenerateDataset draws a synthetic benchmark dataset: dist is "IND", "COR"
// or "ANTI" (Section 8 of the paper), deterministic in seed.
func GenerateDataset(dist string, n, dim int, seed int64, opts ...DatasetOption) (*Dataset, error) {
	d, err := dataset.ParseDistribution(dist)
	if err != nil {
		return nil, err
	}
	if n <= 0 || dim < 2 {
		return nil, fmt.Errorf("repro: invalid size n=%d dim=%d", n, dim)
	}
	return buildDataset(dataset.Generate(d, n, dim, seed), newDatasetConfig(opts))
}

// Len returns the number of records.
func (ds *Dataset) Len() int { return ds.tab.n }

// Dim returns the record dimensionality.
func (ds *Dataset) Dim() int { return ds.tree.Dim() }

// Point returns record i (a copy). An out-of-range index fails with an
// ErrBadQuery-wrapped error, like Engine.Query.
func (ds *Dataset) Point(i int) ([]float64, error) {
	if i < 0 || i >= ds.tab.n {
		return nil, fmt.Errorf("repro: record index %d out of range [0,%d): %w", i, ds.tab.n, ErrBadQuery)
	}
	return ds.tab.row(i).Clone(), nil
}

// Close releases the memory mapping of an mmap-served dataset (idempotent,
// nil-safe in effect: heap datasets have nothing to release). The dataset
// — and every dataset still aliasing the mapping — must not be used
// afterwards. Long-running servers deliberately never call Close on a
// dataset that may still have in-flight readers; the mapping is reclaimed
// by the OS at process exit.
func (ds *Dataset) Close() error {
	if ds.mapping == nil {
		return nil
	}
	return ds.mapping.Close()
}

// StorageMode names how a dataset's index image is held.
const (
	// StorageHeap marks an index decoded into process memory.
	StorageHeap = "heap"
	// StorageMmap marks an index served zero-copy from a read-only memory
	// mapping of a v2 snapshot.
	StorageMmap = "mmap"
)

// StorageStats describes how a dataset holds its records and index image —
// the memory-observability block surfaced by /v1/stats and expvar.
type StorageStats struct {
	// Mode is StorageHeap or StorageMmap.
	Mode string `json:"mode"`
	// SnapshotVersion is the snapshot format the dataset was loaded from
	// (0 = built in process or produced by Apply). Informational: every
	// snapshot is written as v2 whatever this says.
	SnapshotVersion int `json:"snapshot_version,omitempty"`
	// Float32 marks a dataset loaded from a float32-point snapshot.
	Float32 bool `json:"float32,omitempty"`
	// MappedBytes is the size of the memory-mapped snapshot image (0 for
	// heap datasets).
	MappedBytes int64 `json:"mapped_bytes"`
	// HeapBytes approximates the heap footprint of the records and index:
	// the record table's coordinates and tree IDs, page payloads and the
	// decoded node cache a heap index serves from, excluding per-object
	// overhead. For mmap datasets only materialized parts count (the
	// float64 values of a float32 snapshot; zero when the points alias the
	// mapping), since a mapped index caches no nodes and its tree IDs are
	// its record indexes. Versions derived by Apply share every chunk, page
	// and node the batch left unchanged, so summing HeapBytes across
	// versions overcounts.
	HeapBytes int64 `json:"heap_bytes"`
}

// Storage reports the dataset's storage mode and footprint.
func (ds *Dataset) Storage() StorageStats {
	st := StorageStats{
		Mode:            StorageHeap,
		SnapshotVersion: ds.loadedVersion,
		Float32:         ds.loadedFloat32,
	}
	pointBytes := int64(ds.tab.n) * int64(ds.Dim()) * 8
	if ds.mapping != nil {
		st.Mode = StorageMmap
		st.MappedBytes = ds.mapping.Size()
		if ds.loadedFloat32 {
			st.HeapBytes = pointBytes
		}
		return st
	}
	st.HeapBytes = pointBytes + 8*int64(ds.tab.n) + ds.tree.CachedBytes()
	ds.tree.Source().ForEachPage(func(id pager.PageID, data []byte) error {
		st.HeapBytes += int64(len(data))
		return nil
	})
	return st
}

// Fingerprint returns a stable hex digest of the dataset content (the
// record values, in order, plus the dimensionality). Two datasets with the
// same records share a fingerprint regardless of how they were indexed, so
// it identifies a dataset across processes — it keys the result cache and
// is reported by the serving layer. It is computed once and then cached: a
// dataset made by Apply starts the hash on a goroutine of its own before
// it edits the index, and Fingerprint waits for that goroutine if it has
// begun, or, when no core was free to start it, computes the hash on the
// caller's goroutine; any other dataset computes it on the first call, or
// took it from its snapshot.
func (ds *Dataset) Fingerprint() string {
	ds.fpOnce.Do(ds.hash)
	return ds.fp
}

// hash fills in ds.fp, unless the snapshot the dataset was loaded from
// recorded it.
func (ds *Dataset) hash() {
	if ds.fp == "" {
		ds.fp = fingerprintChunks(&ds.tab)
	}
}

// fingerprintChunks computes the content digest behind Fingerprint: the
// dimensionality, then every coordinate, as little-endian 8-byte words. A
// chunk's coordinates are those bytes as they lie in memory (see init), so
// each goes to the hash in one Write.
func fingerprintChunks(t *table) string {
	h := sha256.New()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(t.dim)))
	for _, c := range t.chunks {
		h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&c.coords[0])), 8*len(c.coords)))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// init checks what the package assumes of the host: a float64 in memory is
// its little-endian encoding. The fingerprint hashes the record table's
// memory, and snapshot.View.Points serves a mapping's little-endian bytes
// as float64 values.
func init() {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		panic("repro: the host must be little-endian")
	}
}

// RankOf returns the 1-based rank of a (possibly external) record under q.
// A record or query vector of the wrong dimensionality fails with an
// ErrBadQuery-wrapped error, like Engine.Query.
func (ds *Dataset) RankOf(record, q []float64) (int, error) {
	if len(record) != ds.Dim() {
		return 0, fmt.Errorf("repro: record has %d attributes, dataset has %d: %w", len(record), ds.Dim(), ErrBadQuery)
	}
	if len(q) != ds.Dim() {
		return 0, fmt.Errorf("repro: query vector has %d attributes, dataset has %d: %w", len(q), ds.Dim(), ErrBadQuery)
	}
	fs := vecmath.Point(record).Dot(q)
	order := 1
	for _, c := range ds.tab.chunks {
		for j := range c.ids {
			if vecmath.Point(c.coords[j*len(q):(j+1)*len(q)]).Dot(q) > fs {
				order++
			}
		}
	}
	return order, nil
}

// QuadDefaults returns the dataset's default quad-tree partitioning
// parameters (0 = library default).
func (ds *Dataset) QuadDefaults() (maxPartial, maxDepth int) {
	return ds.quadMaxPartial, ds.quadMaxDepth
}

// toRecordIndexes rewrites tree IDs the index reported as record indexes,
// in place.
func (ds *Dataset) toRecordIndexes(ids []int64) {
	t := &ds.tab
	for n, id := range ids {
		k := sort.Search(len(t.chunks), func(k int) bool { return t.chunks[k].ids[0] > id }) - 1
		j, _ := slices.BinarySearch(t.chunks[k].ids, id)
		ids[n] = int64(t.starts[k] + j)
	}
}

// internalInput assembles a core.Input for this dataset. focalIndex is a
// record index, or negative for a focal outside the dataset.
func (ds *Dataset) internalInput(focal vecmath.Point, focalIndex int64, cfg *QueryOptions) core.Input {
	focalID := focalIndex
	if focalIndex >= 0 {
		focalID = ds.tab.id(int(focalIndex))
	}
	return core.Input{
		Tree:             ds.tree,
		Focal:            focal,
		FocalID:          focalID,
		Tau:              cfg.Tau,
		QuadMaxPartial:   ds.quadMaxPartial,
		QuadMaxDepth:     ds.quadMaxDepth,
		CollectRecordIDs: cfg.OutrankIDs,
	}
}
