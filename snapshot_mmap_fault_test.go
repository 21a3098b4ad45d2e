package repro_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro"
	"repro/internal/snapshot"
	"repro/internal/vfs"
)

// writeV2Fixture builds a small dataset and persists it as a v2 snapshot,
// returning the path and the file bytes.
func writeV2Fixture(t *testing.T) (string, []byte) {
	t.Helper()
	ds, err := repro.GenerateDataset("IND", 200, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.snap")
	if err := ds.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// loadSnapshotFileVFS is LoadSnapshotFile over an injectable filesystem:
// the file is read through fsys (every read a scripted failure point) and
// the bytes go through the same loadImage as every other heap load.
func loadSnapshotFileVFS(fsys vfs.FS, path string, opts ...repro.DatasetOption) (*repro.Dataset, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.LoadSnapshot(f, opts...)
}

// TestLoadSnapshotFileReadFaults: I/O errors and short reads while loading
// a v2 snapshot surface as typed errors — never a crash, never a
// half-initialized dataset.
func TestLoadSnapshotFileReadFaults(t *testing.T) {
	path, data := writeV2Fixture(t)

	t.Run("io error mid-read", func(t *testing.T) {
		ffs := vfs.NewFaultFS(vfs.OS())
		ffs.Inject(vfs.Fault{Op: "read", Path: "ds.snap", AllowBytes: 64, Err: syscall.EIO})
		if _, err := loadSnapshotFileVFS(ffs, path); !errors.Is(err, syscall.EIO) {
			t.Fatalf("got %v, want EIO", err)
		}
	})
	t.Run("silent short read", func(t *testing.T) {
		// A device that delivers half the file and then reports a clean
		// EOF — no error to propagate, so the loader must detect the
		// truncation itself.
		ffs := vfs.NewFaultFS(vfs.OS())
		ffs.Inject(vfs.Fault{Op: "read", Path: "ds.snap", AllowBytes: len(data) / 2})
		ffs.Inject(vfs.Fault{Op: "read", Path: "ds.snap", AllowBytes: 0, Sticky: true, Err: io.EOF})
		_, err := loadSnapshotFileVFS(ffs, path)
		if !errors.Is(err, snapshot.ErrInvalid) {
			t.Fatalf("got %v, want a typed snapshot error", err)
		}
	})
	t.Run("open denied", func(t *testing.T) {
		ffs := vfs.NewFaultFS(vfs.OS())
		ffs.Inject(vfs.Fault{Op: "open", Path: "ds.snap", Err: syscall.EACCES})
		if _, err := loadSnapshotFileVFS(ffs, path); !errors.Is(err, syscall.EACCES) {
			t.Fatalf("got %v, want EACCES", err)
		}
	})
	t.Run("fault-free loads", func(t *testing.T) {
		ds, err := loadSnapshotFileVFS(vfs.NewFaultFS(vfs.OS()), path)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 200 {
			t.Fatalf("loaded %d records, want 200", ds.Len())
		}
	})
}

// TestLoadSnapshotFileTruncationBattery truncates the on-disk v2 file at
// a sweep of boundaries — including every section edge the format defines
// — and proves each load fails with a typed snapshot error through both
// the real mmap path and the vfs path.
func TestLoadSnapshotFileTruncationBattery(t *testing.T) {
	path, data := writeV2Fixture(t)
	cuts := map[string]int{
		"empty":         0,
		"mid-magic":     4,
		"post-version":  12,
		"mid-header":    60,
		"post-header":   116,
		"mid-points":    len(data) / 3,
		"mid-directory": 2 * len(data) / 3,
		"pre-trailer":   len(data) - 4,
		"off-by-one":    len(data) - 1,
	}
	dir := t.TempDir()
	for name, cut := range cuts {
		t.Run(name, func(t *testing.T) {
			tp := filepath.Join(dir, fmt.Sprintf("trunc-%d.snap", cut))
			if err := os.WriteFile(tp, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			ds, err := repro.LoadSnapshotFile(tp)
			if err == nil {
				ds.Close()
				t.Fatal("truncated snapshot loaded via mmap path")
			}
			// The empty file is rejected before it can be mapped; every
			// other cut must surface a typed snapshot error.
			if cut != 0 && !errors.Is(err, snapshot.ErrInvalid) {
				t.Fatalf("mmap path: got %v, want a typed snapshot error", err)
			}
			if _, err := loadSnapshotFileVFS(vfs.NewFaultFS(vfs.OS()), tp); !errors.Is(err, snapshot.ErrInvalid) {
				t.Fatalf("vfs path: got %v, want a typed snapshot error", err)
			}
		})
	}
	_ = path
}

// TestLoadSnapshotFileBitFlipBattery flips a spread of bits across the
// file — header fields, the fingerprint, points, directory entries, page
// payloads, the trailer — and proves the validation contract: everything
// up to the pages section is caught typed by the mmap fast path (whose
// zero-copy serving depends on it), while page-payload and trailer-CRC
// corruption — which the fast path defers by design — is caught typed by
// the full heap decode. No flip anywhere crashes or loads untyped.
func TestLoadSnapshotFileBitFlipBattery(t *testing.T) {
	_, data := writeV2Fixture(t)
	// pagesOff lives at header offset 88; every byte before it is covered
	// by the header, directory or points CRCs that Open verifies.
	pagesOff := int(binary.LittleEndian.Uint64(data[88:]))
	dir := t.TempDir()
	// A dense sweep is O(file bytes × load); sample every 97th byte plus
	// the structurally critical header offsets.
	offsets := []int{8, 12, 16, 20, 24, 40, 56, 72, 88, 104, 108}
	for off := 0; off < len(data); off += 97 {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, pagesOff, len(data)-1)
	for _, off := range offsets {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		tp := filepath.Join(dir, fmt.Sprintf("flip-%d.snap", off))
		if err := os.WriteFile(tp, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if off < pagesOff {
			ds, err := repro.LoadSnapshotFile(tp)
			if err == nil {
				ds.Close()
				t.Fatalf("byte %d flipped and the snapshot still mmap-loaded", off)
			}
			if !errors.Is(err, snapshot.ErrInvalid) && !errors.Is(err, repro.ErrSnapshotMismatch) {
				t.Fatalf("byte %d: mmap path got untyped error %v", off, err)
			}
		}
		// The full decode must catch every flip, page payloads included.
		_, err := repro.LoadSnapshotFile(tp, repro.WithMmap(false))
		if err == nil {
			t.Fatalf("byte %d flipped and the snapshot still heap-loaded", off)
		}
		if !errors.Is(err, snapshot.ErrInvalid) && !errors.Is(err, repro.ErrSnapshotMismatch) {
			t.Fatalf("byte %d: heap path got untyped error %v", off, err)
		}
		os.Remove(tp)
	}
}

// snapshotDoors are the four ways bytes reach loadImage: the mapping, and
// three heap doors (WithMmap(false), a stream, the fault-injectable vfs).
var snapshotDoors = []struct {
	name   string
	mapped bool
	load   func(path string) (*repro.Dataset, error)
}{
	{"mmap", true, func(path string) (*repro.Dataset, error) { return repro.LoadSnapshotFile(path) }},
	{"mmap-off", false, func(path string) (*repro.Dataset, error) {
		return repro.LoadSnapshotFile(path, repro.WithMmap(false))
	}},
	{"reader", false, func(path string) (*repro.Dataset, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return repro.LoadSnapshot(bytes.NewReader(raw))
	}},
	{"vfs", false, func(path string) (*repro.Dataset, error) {
		return loadSnapshotFileVFS(vfs.NewFaultFS(vfs.OS()), path)
	}},
}

// reseal recomputes the CRCs of a v2 image after a test edited it, so the
// edit is the only thing wrong with the file: the points CRC (header
// offset 104), the header CRC after the fingerprint, and the file trailer.
func reseal(img []byte) {
	le := binary.LittleEndian
	tab := crc32.MakeTable(crc32.Castagnoli)
	pointsOff, pointsLen := le.Uint64(img[56:]), le.Uint64(img[64:])
	le.PutUint32(img[104:], crc32.Checksum(img[pointsOff:pointsOff+pointsLen], tab))
	hdrEnd := 112 + le.Uint32(img[108:])
	le.PutUint32(img[hdrEnd:], crc32.Checksum(img[:hdrEnd], tab))
	le.PutUint32(img[len(img)-4:], crc32.Checksum(img[:len(img)-4], tab))
}

// TestOneLoaderFourDoors pins loadImage's contract across every way in: a
// sound image answers identically through all four doors; what the mapped
// load defers by design — the page-payload checksum and the fingerprint
// re-hash — every heap door catches, typed; and what no door may let
// through, none does.
func TestOneLoaderFourDoors(t *testing.T) {
	path, data := writeV2Fixture(t)
	le := binary.LittleEndian
	pointsOff, pagesOff := int(le.Uint64(data[56:])), int(le.Uint64(data[88:]))

	flipped := bytes.Clone(data)
	flipped[pagesOff+len(flipped[pagesOff:])/2] ^= 0x01 // inside a page payload

	forged := bytes.Clone(data)
	forged[112] ^= 0x01 // first fingerprint byte, under a fresh header CRC
	reseal(forged)

	nan := bytes.Clone(data)
	le.PutUint64(nan[pointsOff+8*7:], math.Float64bits(math.NaN()))
	reseal(nan)

	dir := t.TempDir()
	write := func(name string, img []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	flippedPath, forgedPath, nanPath := write("flipped.snap", flipped), write("forged.snap", forged), write("nan.snap", nan)

	var want *repro.Result
	for _, door := range snapshotDoors {
		t.Run(door.name, func(t *testing.T) {
			ds, err := door.load(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if got := ds.Storage().Mode == repro.StorageMmap; got != door.mapped {
				t.Fatalf("storage mode %q", ds.Storage().Mode)
			}
			eng, err := repro.NewEngine(ds)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Query(context.Background(), 42, repro.WithTau(1), repro.WithOutrankIDs(true))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
			} else if !reflect.DeepEqual(answerOf(res), answerOf(want)) {
				t.Fatal("answer differs from the first door's")
			}

			// A flipped payload byte and a forged fingerprint pass the mapped
			// load (deferred by contract) and fail every heap load, typed.
			for _, tc := range []struct {
				path string
				want error
			}{{flippedPath, snapshot.ErrChecksum}, {forgedPath, repro.ErrSnapshotMismatch}} {
				bad, err := door.load(tc.path)
				switch {
				case door.mapped && err != nil:
					t.Fatalf("%s: mapped load refused what it defers: %v", filepath.Base(tc.path), err)
				case door.mapped:
					bad.Close()
				case !errors.Is(err, tc.want):
					t.Fatalf("%s: got %v, want %v", filepath.Base(tc.path), err, tc.want)
				}
			}
			if _, err := door.load(nanPath); err == nil {
				t.Fatal("a snapshot with a NaN coordinate loaded")
			}
		})
	}
}
