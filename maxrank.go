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
//	ds, _ := repro.NewDataset(points)            // [][]float64, one record per row
//	res, _ := repro.Compute(ds, 17)              // MaxRank of record 17
//	fmt.Println(res.KStar, len(res.Regions))     // best rank and its regions
//	q := res.Regions[0].QueryVector              // a preference achieving it
package repro

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mmap"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// Dataset is an indexed collection of records. It is built once and then
// queried any number of times; page-access statistics accumulate in the
// backing store and can be reset between queries.
type Dataset struct {
	points []vecmath.Point
	// tree is the index. Its page source is a heap *pager.Store for built
	// or heap-loaded datasets, a read-only pager.Mapped view for datasets
	// served straight from a memory-mapped snapshot.
	tree *rstar.Tree

	// quadMaxPartial and quadMaxDepth are the dataset's default quad-tree
	// partitioning parameters (0 = library default). Per-query WithQuadTree
	// options override them; they persist in snapshots so a served dataset
	// keeps the partitioning it was built for.
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
	// a v2 snapshot (nil otherwise); points and pages alias it, so it must
	// outlive the dataset. pointsAliased records whether points alias the
	// mapping (false for float32 snapshots, whose points materialize).
	mapping       *mmap.Mapping
	pointsAliased bool

	fpOnce sync.Once
	fp     string
}

// DatasetOption configures dataset construction.
type DatasetOption func(*datasetConfig)

type datasetConfig struct {
	pageSize       int
	insertBuild    bool
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

// WithInsertBuild builds the R*-tree by repeated insertion (exercising the
// full R* insertion/split/reinsert machinery) instead of bulk loading.
func WithInsertBuild(on bool) DatasetOption {
	return func(c *datasetConfig) { c.insertBuild = on }
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
// construction rejects anything else). Queries that do not pass
// WithQuadTree use these values, and WriteSnapshot persists them, so an
// operator-tuned partitioning survives a snapshot/load cycle.
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
		pts[i] = vecmath.Point(row).Clone()
	}
	return buildDataset(pts, newDatasetConfig(opts))
}

// checkFinite rejects NaN and ±Inf coordinates. A single NaN silently
// poisons everything downstream — LP feasibility tests, score ordering,
// BBS dominance pruning and the dataset fingerprint — so non-finite input
// must fail at the door, not corrupt answers later.
func checkFinite(pts []vecmath.Point) error {
	for i, p := range pts {
		for j, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("repro: record %d attribute %d is %v; coordinates must be finite", i, j, v)
			}
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
	if err := checkFinite(pts); err != nil {
		return nil, err
	}
	store := pager.NewStore(cfg.pageSize)
	tree, err := rstar.New(store, len(pts[0]), rstar.Options{})
	if err != nil {
		return nil, err
	}
	if cfg.insertBuild {
		for i, p := range pts {
			if err := tree.Insert(p, int64(i)); err != nil {
				return nil, err
			}
		}
	} else if err := tree.BulkLoad(pts, nil); err != nil {
		return nil, err
	}
	if err := tree.Finalize(); err != nil {
		return nil, err
	}
	store.ResetStats()
	store.SetLatency(cfg.pageLatency)
	return &Dataset{
		points:         pts,
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
func (ds *Dataset) Len() int { return len(ds.points) }

// Dim returns the record dimensionality.
func (ds *Dataset) Dim() int { return ds.tree.Dim() }

// Point returns record i (a copy). An out-of-range index fails with an
// ErrBadQuery-wrapped error, like Engine.Query.
func (ds *Dataset) Point(i int) ([]float64, error) {
	if i < 0 || i >= len(ds.points) {
		return nil, fmt.Errorf("repro: record index %d out of range [0,%d): %w", i, len(ds.points), ErrBadQuery)
	}
	return ds.points[i].Clone(), nil
}

// IOReads returns the page reads accumulated since the last reset.
func (ds *Dataset) IOReads() int64 { return ds.tree.Source().Stats().Reads }

// ResetIO zeroes the page-access counters.
func (ds *Dataset) ResetIO() { ds.tree.Source().ResetStats() }

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
	// point values, page payloads and the decoded node cache a heap index
	// serves from, excluding per-object overhead. For mmap datasets only
	// materialized parts count (the float64 values of a float32 snapshot;
	// zero when points alias the mapping), since a mapped index caches no
	// nodes.
	HeapBytes int64 `json:"heap_bytes"`
}

// Storage reports the dataset's storage mode and footprint.
func (ds *Dataset) Storage() StorageStats {
	st := StorageStats{
		Mode:            StorageHeap,
		SnapshotVersion: ds.loadedVersion,
		Float32:         ds.loadedFloat32,
	}
	pointBytes := int64(len(ds.points)) * int64(ds.Dim()) * 8
	if ds.mapping != nil {
		st.Mode = StorageMmap
		st.MappedBytes = ds.mapping.Size()
		if !ds.pointsAliased {
			st.HeapBytes = pointBytes
		}
		return st
	}
	st.HeapBytes = pointBytes + ds.tree.CachedBytes()
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
// is reported by the serving layer. Computed lazily once and then cached.
func (ds *Dataset) Fingerprint() string {
	ds.fpOnce.Do(func() {
		ds.fp = fingerprintPoints(ds.Dim(), ds.points)
	})
	return ds.fp
}

// fingerprintPoints computes the content digest behind Fingerprint. It is
// separate so the snapshot loader can verify a file's recorded
// fingerprint against its points before building any index structures.
func fingerprintPoints(dim int, pts []vecmath.Point) string {
	// The values go to the hash 4 KiB at a time, not one Write (an
	// interface call) per value.
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(dim))
	for _, p := range pts {
		for _, v := range p {
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Score returns record i's score under the (full, d-dimensional) query
// vector q. An out-of-range index or a query vector of the wrong
// dimensionality fails with an ErrBadQuery-wrapped error, like
// Engine.Query.
func (ds *Dataset) Score(i int, q []float64) (float64, error) {
	if i < 0 || i >= len(ds.points) {
		return 0, fmt.Errorf("repro: record index %d out of range [0,%d): %w", i, len(ds.points), ErrBadQuery)
	}
	if len(q) != ds.Dim() {
		return 0, fmt.Errorf("repro: query vector has %d attributes, dataset has %d: %w", len(q), ds.Dim(), ErrBadQuery)
	}
	return ds.points[i].Dot(vecmath.Point(q)), nil
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
	return vecmath.OrderOf(ds.points, vecmath.Point(record), vecmath.Point(q)), nil
}

// QuadDefaults returns the dataset's default quad-tree partitioning
// parameters (0 = library default).
func (ds *Dataset) QuadDefaults() (maxPartial, maxDepth int) {
	return ds.quadMaxPartial, ds.quadMaxDepth
}

// internalInput assembles a core.Input for this dataset.
func (ds *Dataset) internalInput(focal vecmath.Point, focalID int64, cfg *queryConfig) core.Input {
	return core.Input{
		Tree:             ds.tree,
		Focal:            focal,
		FocalID:          focalID,
		Tau:              cfg.Tau,
		QuadMaxPartial:   cfg.QuadMaxPartial,
		QuadMaxDepth:     cfg.QuadMaxDepth,
		CollectRecordIDs: cfg.OutrankIDs,
	}
}
