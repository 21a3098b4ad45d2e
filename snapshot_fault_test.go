package repro

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/vfs"
)

func faultTestDataset(t *testing.T) *Dataset {
	t.Helper()
	pts := [][]float64{
		{0.1, 0.9}, {0.4, 0.5}, {0.8, 0.2}, {0.3, 0.3}, {0.6, 0.7},
	}
	ds, err := NewDataset(pts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// mustLoadSnapshotFile asserts path holds a loadable snapshot with the
// dataset's fingerprint.
func mustLoadSnapshotFile(t *testing.T, path, wantFP string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("snapshot unreadable: %v", err)
	}
	defer f.Close()
	ds, err := LoadSnapshot(f)
	if err != nil {
		t.Fatalf("snapshot unloadable: %v", err)
	}
	if got := ds.Fingerprint(); got != wantFP {
		t.Fatalf("snapshot fingerprint %s, want %s", got, wantFP)
	}
}

// TestWriteSnapshotFileSyncsDataAndDir pins the durability protocol:
// exactly one fsync of the temp file's data before the rename and one of
// the directory after it. A byte-identical but unsynced write path would
// pass every content check and still lose snapshots on power loss — the
// fault script is the only way to observe the difference.
func TestWriteSnapshotFileSyncsDataAndDir(t *testing.T) {
	dir := t.TempDir()
	ds := faultTestDataset(t)
	path := filepath.Join(dir, "d.snap")

	// File-data fsync missing => failing it must fail the write.
	ffs := vfs.NewFaultFS(vfs.OS())
	ffs.Inject(vfs.Fault{Op: "sync", Path: ".snap-", Err: syscall.EIO})
	if err := ds.writeSnapshotFile(ffs, path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("temp-file fsync failure not propagated: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write published the target name: %v", err)
	}

	// Directory fsync: fault the sync of the directory handle (the only
	// sync whose path is the directory itself).
	ffs = vfs.NewFaultFS(vfs.OS())
	ffs.Inject(vfs.Fault{Op: "sync", Path: dir, After: 1, Err: syscall.EIO})
	if err := ds.writeSnapshotFile(ffs, path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("directory fsync failure not propagated: %v", err)
	}
	// The rename already happened — the file exists and is valid even
	// though the caller was told the write may not be durable.
	mustLoadSnapshotFile(t, path, ds.Fingerprint())

	// And the clean path works end to end.
	if err := ds.writeSnapshotFile(vfs.NewFaultFS(vfs.OS()), path); err != nil {
		t.Fatal(err)
	}
	mustLoadSnapshotFile(t, path, ds.Fingerprint())
}

// TestWriteSnapshotFileFaultsPreserveOldSnapshot scripts every failure
// point of the write path and asserts the invariant the -resnapshot loop
// depends on: a failed rewrite NEVER damages the previous snapshot, and
// never leaves a temp file behind.
func TestWriteSnapshotFileFaultsPreserveOldSnapshot(t *testing.T) {
	old := faultTestDataset(t)
	mutated, err := old.Apply([]Op{InsertOp([]float64{0.55, 0.15})})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fault vfs.Fault
	}{
		{"temp-create", vfs.Fault{Op: "open", Path: ".snap-", Err: syscall.EACCES}},
		{"enospc-short-write", vfs.Fault{Op: "write", Path: ".snap-", AllowBytes: 10, Err: syscall.ENOSPC}},
		{"eio-write", vfs.Fault{Op: "write", Path: ".snap-", Err: syscall.EIO}},
		{"sync", vfs.Fault{Op: "sync", Path: ".snap-", Err: syscall.EIO}},
		{"close", vfs.Fault{Op: "close", Path: ".snap-", Err: syscall.EIO}},
		{"chmod", vfs.Fault{Op: "chmod", Path: ".snap-", Err: syscall.EPERM}},
		{"rename", vfs.Fault{Op: "rename", Err: syscall.EXDEV}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "d.snap")
			if err := old.WriteSnapshotFile(path); err != nil {
				t.Fatal(err)
			}
			ffs := vfs.NewFaultFS(vfs.OS())
			ffs.Inject(tc.fault)
			if err := mutated.writeSnapshotFile(ffs, path); !errors.Is(err, tc.fault.Err) {
				t.Fatalf("fault not propagated: %v, want %v", err, tc.fault.Err)
			}
			// The previous snapshot is intact and loadable.
			mustLoadSnapshotFile(t, path, old.Fingerprint())
			// No temp debris (the deferred remove cleaned up; for
			// temp-create nothing was created at all).
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".snap-") {
					t.Fatalf("leftover temp file %s", e.Name())
				}
			}
		})
	}
}

// TestWriteSnapshotFileCrashLeavesOldSnapshot cuts the power mid-write at
// several byte offsets: the target name must always hold the complete old
// snapshot afterwards (plus possibly an orphaned temp, which the startup
// sweep removes).
func TestWriteSnapshotFileCrashLeavesOldSnapshot(t *testing.T) {
	old := faultTestDataset(t)
	mutated, err := old.Apply([]Op{InsertOp([]float64{0.55, 0.15})})
	if err != nil {
		t.Fatal(err)
	}
	for _, crashAt := range []int64{0, 1, 64, 300, 1000, 1 << 20} {
		dir := t.TempDir()
		path := filepath.Join(dir, "d.snap")
		if err := old.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		ffs := vfs.NewFaultFS(vfs.OS())
		ffs.CrashAfterBytes(crashAt)
		err := mutated.writeSnapshotFile(ffs, path)
		switch {
		case err == nil:
			// The whole snapshot fit below the crash offset: the new one
			// was fully published.
			mustLoadSnapshotFile(t, path, mutated.Fingerprint())
		case errors.Is(err, vfs.ErrCrashed):
			// Died mid-write: the old snapshot must still be served.
			mustLoadSnapshotFile(t, path, old.Fingerprint())
		default:
			t.Fatalf("crash at %d: unexpected error %v", crashAt, err)
		}
	}
}
