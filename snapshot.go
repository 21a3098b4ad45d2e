package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/dataset"
	"repro/internal/mmap"
	"repro/internal/pager"
	"repro/internal/rstar"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
	"repro/internal/vfs"
)

// WriteSnapshot persists the dataset and its R*-tree index in the
// versioned, checksummed binary format of internal/snapshot (format v2,
// the only one written): the raw records, every index page exactly as the
// pager stores it, and the dataset's quad-tree partitioning defaults.
// LoadSnapshot and LoadSnapshotFile restore the dataset without rebuilding
// anything, and the restored dataset produces bit-identical query results —
// regions, ranks, witnesses and Stats.IO — to this one.
//
// The stream is deterministic: the same dataset writes byte-identical
// snapshots, whatever it was built or loaded from (a dataset loaded from a
// legacy v1 or a float32 file re-snapshots as float64 v2 with its
// fingerprint preserved). The dataset must not be mutated concurrently.
func (ds *Dataset) WriteSnapshot(w io.Writer) error {
	snap := &snapshot.Snapshot{
		Fingerprint:    ds.Fingerprint(),
		Dim:            ds.Dim(),
		Count:          ds.Len(),
		PageSize:       ds.tree.Source().PageSize(),
		QuadMaxPartial: ds.quadMaxPartial,
		QuadMaxDepth:   ds.quadMaxDepth,
		Root:           int64(ds.tree.Root()),
		Height:         ds.tree.Height(),
		Points:         dataset.Flatten(ds.points),
	}
	err := ds.tree.Source().ForEachPage(func(id pager.PageID, data []byte) error {
		if data == nil {
			return fmt.Errorf("repro: page %d allocated but never written (index not finalized?)", id)
		}
		snap.Pages = append(snap.Pages, snapshot.Page{ID: int64(id), Data: data})
		return nil
	})
	if err != nil {
		return err
	}
	return snapshot.WriteV2(w, snap)
}

func onlyV2(version int, float32Points bool) error {
	if version != snapshot.Version2 || float32Points {
		return fmt.Errorf("repro: snapshots are written as float64 format %d only (asked for format %d, float32 %t)",
			snapshot.Version2, version, float32Points)
	}
	return nil
}

// Snapshot persists the engine's dataset and index; see
// Dataset.WriteSnapshot. It is safe to call while the engine serves
// queries: the index is immutable once built.
func (e *Engine) Snapshot(w io.Writer) error { return e.ds.WriteSnapshot(w) }

// LoadSnapshot restores a dataset from a snapshot stream, skipping index
// construction entirely: the R*-tree pages are installed verbatim and the
// tree metadata is taken from the snapshot, so cold start costs one
// sequential read instead of a bulk load. The restored dataset is
// query-equivalent to the one that was persisted — results, including
// Stats.IO, are bit-identical. A stream always loads onto the heap, fully
// verified (see loadImage); use LoadSnapshotFile for zero-copy mmap
// serving. Legacy v1 streams still load.
//
// Options apply as in NewDataset with two exceptions: the page size and
// the quad-tree defaults come from the snapshot, so WithPageSize and
// WithQuadDefaults are ignored (the pages were encoded for the persisted
// size); WithInsertBuild is meaningless here and also ignored.
// WithPageLatency configures the simulated page latency as usual. A stream
// loads onto the heap, so the index serves from its decoded node cache.
//
// Decode failures carry the typed errors of internal/snapshot (bad magic,
// truncation, future version, checksum mismatch); a snapshot whose points
// do not hash to its recorded fingerprint fails with ErrSnapshotMismatch.
func LoadSnapshot(r io.Reader, opts ...DatasetOption) (*Dataset, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", snapshot.ErrInvalid, err)
	}
	return loadHeapImage(data, newDatasetConfig(opts))
}

// LoadSnapshotFile restores a dataset from a snapshot file. The file is
// memory-mapped read-only and served zero-copy by default: the points
// array and the index pages alias the mapping, so cold start costs
// header/directory/points validation instead of a full decode, the OS page
// cache is the buffer pool (datasets larger than RAM serve fine), and N
// processes serving the same file share one physical copy. Query answers —
// regions, ranks, witnesses and Stats.IO — are bit-identical to a heap
// load of the same file.
//
// WithMmap(false) loads onto the heap instead, as do platforms without
// mmap and legacy v1 files (their layout is sequential, not mappable; they
// are converted on the way in). A heap load decodes every index page once
// and serves from that node cache; in mmap mode the index decodes each
// page it reads from the mapping — the paper's main-memory and
// disk-resident scenarios, chosen by storage — and mutation
// (Dataset.Apply) promotes the image into heap pages, never writing
// through the mapping.
//
// The mapping is released by Dataset.Close or at process exit.
func LoadSnapshotFile(path string, opts ...DatasetOption) (*Dataset, error) {
	cfg := newDatasetConfig(opts)
	if !cfg.noMmap {
		// Map first and read the version word from the mapping. A file that
		// cannot be mapped (empty, or missing) falls through to the read
		// below, whose errors are the os and typed ErrInvalid ones.
		if m, err := mmap.Open(path); err == nil {
			if m.Mapped() && snapshot.VersionOf(m.Data()) != snapshot.Version1 {
				ds, err := loadImage(m.Data(), m, cfg)
				if err != nil {
					m.Close()
				}
				return ds, err
			}
			// A v1 stream, or a platform whose "mapping" is a heap read: a
			// heap load copies everything it keeps out of the bytes.
			defer m.Close()
			return loadHeapImage(m.Data(), cfg)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return loadHeapImage(data, cfg)
}

// loadHeapImage loads a snapshot held in ordinary memory. A legacy v1
// stream is no second load path, only a conversion at the door: it is
// decoded (its CRC verified), re-encoded as the canonical v2 image of the
// same snapshot value, and that image goes through the one loader.
func loadHeapImage(data []byte, cfg datasetConfig) (*Dataset, error) {
	if snapshot.VersionOf(data) != snapshot.Version1 {
		return loadImage(data, nil, cfg)
	}
	snap, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if data, err = snapshot.EncodeV2(snap); err != nil {
		return nil, err
	}
	ds, err := loadImage(data, nil, cfg)
	if err != nil {
		return nil, err
	}
	ds.loadedVersion = snapshot.Version1
	return ds, nil
}

// loadImage is the one snapshot loader: it builds a dataset from a v2
// image. What differs between its two modes is where the bytes live and
// how far they are trusted.
//
// With a mapping (m owns data) the dataset serves zero-copy: the points
// become row sub-slices of the image's flat array (float32 images
// materialize exactly) and the index pages are served through a read-only
// pager.Mapped source, so nothing is decoded up front and nothing can write
// back into the image. Validation is the View's own — header, directory
// and points CRCs, every bound — plus the finiteness gate; the page
// payloads are not checksummed and the fingerprint is not re-derived (the
// recorded value is covered by the header CRC and the points by their own
// CRC, so against corruption it is as trustworthy as a recomputation, and
// cold start stays proportional to validation, not to hashing the points).
//
// Without one (m == nil: WithMmap(false), LoadSnapshot, platforms without
// mmap, converted v1 streams) the image is additionally verified in full —
// the whole-file CRC, which covers the page payloads, and the fingerprint
// re-derived from the points, which catches a deliberately forged file
// pairing valid CRCs with someone else's fingerprint — and then copied
// once: points into an owned array, pages straight into a heap pager.Store.
// Nothing aliases data afterwards.
//
// Either way the recorded fingerprint seeds the dataset's lazy fingerprint
// cache, so Fingerprint() is O(1) on loaded datasets.
func loadImage(data []byte, m *mmap.Mapping, cfg datasetConfig) (*Dataset, error) {
	v, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	heap := m == nil
	if heap {
		if err := v.VerifyFile(); err != nil {
			return nil, err
		}
	}
	flat := v.Points()
	if heap && v.PointsZeroCopy() {
		flat = slices.Clone(flat)
	}
	pts := make([]vecmath.Point, v.Count)
	for i := range pts {
		pts[i] = vecmath.Point(flat[i*v.Dim : (i+1)*v.Dim : (i+1)*v.Dim])
	}
	if heap {
		// The fingerprint ties the points to the index pages: verify before
		// building anything from pages that may describe other records.
		if fp := fingerprintPoints(v.Dim, pts); fp != v.Fingerprint {
			return nil, fmt.Errorf("%w: points hash to %s, snapshot records %s",
				ErrSnapshotMismatch, fp, v.Fingerprint)
		}
	}
	// Finiteness gate, exactly as NewDataset: the format allows any float64
	// bit pattern, but query answers must never see NaN/Inf.
	if err := checkFinite(pts); err != nil {
		return nil, err
	}
	var src pager.Source
	if heap {
		store := pager.NewStore(v.PageSize)
		for i := 0; i < v.NumPages(); i++ {
			id, pd := v.Page(i)
			if err := store.Restore(pager.PageID(id), pd); err != nil {
				return nil, err
			}
		}
		// Snapshots written from mutated datasets can carry page-ID gaps;
		// reclaim them so later mutations of the loaded dataset reuse the
		// slots instead of growing the ID space.
		store.ReclaimGaps()
		src = store
	} else {
		pages := make([]pager.MappedPage, v.NumPages())
		for i := range pages {
			id, pd := v.Page(i)
			pages[i] = pager.MappedPage{ID: pager.PageID(id), Data: pd}
		}
		if src, err = pager.NewMapped(v.PageSize, pages); err != nil {
			return nil, err
		}
	}
	tree, err := rstar.RestoreFrom(src, v.Dim, pager.PageID(v.Root), v.Height, int64(v.Count), rstar.Options{})
	if err != nil {
		return nil, err
	}
	src.ResetStats()
	src.SetLatency(cfg.pageLatency)
	return &Dataset{
		points:         pts,
		tree:           tree,
		fp:             v.Fingerprint,
		quadMaxPartial: v.QuadMaxPartial,
		quadMaxDepth:   v.QuadMaxDepth,
		pageLatency:    cfg.pageLatency,
		loadedVersion:  snapshot.Version2,
		loadedFloat32:  v.Float32,
		mapping:        m,
		pointsAliased:  !heap && v.PointsZeroCopy(),
	}, nil
}

// WriteSnapshotFile persists the dataset to path atomically and durably:
// the snapshot is written to a temp file in the target directory, fsynced,
// made world-readable (snapshots are typically built by one user and
// served by another) and renamed into place, and the directory entry is
// fsynced too — so a crash mid-write never leaves a half-snapshot under
// the target name, and a completed write survives power loss, not just
// process death. It is the write path of maxrank build-snapshot and of
// maxrankd's -resnapshot write-behind.
func (ds *Dataset) WriteSnapshotFile(path string) error {
	return ds.writeSnapshotFile(vfs.OS(), path)
}

// WriteSnapshotFileVersion is WriteSnapshotFile. The arguments survive
// only because the benchmark harness under bench/ passes
// (snapshot.Version2, false); anything else is an error — there is no
// other format to write and no lossy float32 mode. Scheduled for removal
// with the next benchmark PR (ROADMAP).
func (ds *Dataset) WriteSnapshotFileVersion(path string, version int, float32Points bool) error {
	if err := onlyV2(version, float32Points); err != nil {
		return err
	}
	return ds.WriteSnapshotFile(path)
}

// writeSnapshotFile is the atomic-write core over an injectable
// filesystem, so every failure point (temp creation, short write, fsync,
// rename) is provable via vfs.FaultFS. Any failure leaves whatever
// previously existed at path untouched.
func (ds *Dataset) writeSnapshotFile(fsys vfs.FS, path string) error {
	dir := filepath.Dir(path)
	tmp, err := vfs.CreateTemp(fsys, dir, ".snap-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if err := ds.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	// fsync before close: rename-into-place only publishes durable bytes
	// if the file's data reached disk first (otherwise power loss can
	// leave the target name pointing at a hole).
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// The rename itself lives in the directory's metadata; without this
	// fsync a power loss can roll the rename back.
	return vfs.SyncDir(fsys, dir)
}

// ErrSnapshotMismatch marks a structurally valid snapshot whose recorded
// dataset fingerprint does not match its points — the index pages cannot
// be trusted to describe the records.
var ErrSnapshotMismatch = fmt.Errorf("repro: snapshot fingerprint mismatch: %w", snapshot.ErrInvalid)
