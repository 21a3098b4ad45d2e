package main

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/wal"
)

// TestWALConfigValidation: the -wal flag family is rejected up front when
// incoherent, mirroring TestConfigValidation for the dataset sources.
func TestWALConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     config
		wantErr string
	}{
		{"wal without dir", config{gen: "IND", n: 10, dim: 2, wal: true, walSync: "always"}, "-wal needs -data-dir"},
		{"wal ok", config{dataDir: "/d", wal: true, walSync: "always"}, ""},
		{"bad sync policy", config{dataDir: "/d", wal: true, walSync: "sometimes"}, "-wal-sync"},
		{"interval needs period", config{dataDir: "/d", wal: true, walSync: "interval"}, "-wal-sync-interval"},
		{"interval ok", config{dataDir: "/d", wal: true, walSync: "interval", walSyncInterval: time.Millisecond}, ""},
		{"none ok", config{dataDir: "/d", wal: true, walSync: "none"}, ""},
		{"flags inert without -wal", config{dataDir: "/d", walSync: "sometimes"}, ""},
	}
	for _, tc := range cases {
		err := tc.cfg.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestSweepOrphans: leaked atomic-write temp files are removed at startup;
// anything else — real snapshots, real logs, directories, names that only
// resemble temp files — is left alone.
func TestSweepOrphans(t *testing.T) {
	dir := t.TempDir()
	orphans := []string{".snap-123", ".wal-456", ".snap-0"}
	keep := []string{"hotels.snap", "hotels.wal", ".snap-abc", ".snapx-1", "x.snap-123", ".wal-12x"}
	for _, name := range append(append([]string{}, orphans...), keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A directory whose name matches the pattern must survive too.
	if err := os.Mkdir(filepath.Join(dir, ".snap-999"), 0o755); err != nil {
		t.Fatal(err)
	}

	removed, err := sweepOrphans(dir, log.New(io.Discard, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(orphans) {
		t.Fatalf("swept %d files, want %d", removed, len(orphans))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	want := append(append([]string{}, keep...), ".snap-999")
	sort.Strings(left)
	sort.Strings(want)
	if strings.Join(left, ",") != strings.Join(want, ",") {
		t.Fatalf("directory after sweep: %v, want %v", left, want)
	}
}

// walTestDataset writes a small snapshot into dir and returns the dataset.
func walTestDataset(t *testing.T, dir, name string) *repro.Dataset {
	t.Helper()
	ds, err := repro.GenerateDataset("IND", 60, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshotFile(filepath.Join(dir, name+".snap")); err != nil {
		t.Fatal(err)
	}
	return ds
}

// appendChain appends n insert batches to dir/<name>.wal, each chained by
// real fingerprints from ds, and returns the resulting dataset.
func appendChain(t *testing.T, dir, name string, ds *repro.Dataset, baseVersion uint64, n int) *repro.Dataset {
	t.Helper()
	l, _, err := wal.Open(filepath.Join(dir, name+".wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < n; i++ {
		ops := []repro.Op{repro.InsertOp([]float64{0.1 * float64(i+1), 0.2, 0.3})}
		next, err := ds.Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		rec := wal.Record{
			BaseVersion:     baseVersion + uint64(i),
			BaseFingerprint: ds.Fingerprint(),
			NewFingerprint:  next.Fingerprint(),
			Ops:             toWALOps(ops),
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		ds = next
	}
	return ds
}

// TestBuildRegistryReplaysWAL: startup rolls a snapshot forward through
// its log — the served dataset is the chain head, not the snapshot — and
// replay compacts nothing it still needs (a restart replays again).
func TestBuildRegistryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	base := walTestDataset(t, dir, "hotels")
	want := appendChain(t, dir, "hotels", base, 1, 3)

	cfg := config{dataDir: dir, wal: true, walSync: "always", cacheCap: 16}
	for restart := 0; restart < 2; restart++ {
		walMgr := newWALManager(dir, wal.SyncAlways, 0, log.New(io.Discard, "", 0))
		reg, err := cfg.buildRegistry(log.New(io.Discard, "", 0), walMgr)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		eng, release, err := reg.Acquire("hotels")
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		if got := eng.Dataset().Fingerprint(); got != want.Fingerprint() {
			t.Fatalf("restart %d: serving fingerprint %s, want chain head %s", restart, got, want.Fingerprint())
		}
		if eng.Dataset().Len() != base.Len()+3 {
			t.Fatalf("restart %d: %d records, want %d", restart, eng.Dataset().Len(), base.Len()+3)
		}
		release()
		walMgr.Close()
	}
}

// TestBuildRegistryRefusesMismatchedWAL: a log that cannot apply to its
// snapshot (disagreeing history) fails startup instead of silently
// dropping acknowledged mutations.
func TestBuildRegistryRefusesMismatchedWAL(t *testing.T) {
	dir := t.TempDir()
	walTestDataset(t, dir, "hotels")
	// A chain rooted at a fingerprint no state of this snapshot ever had.
	other, err := repro.GenerateDataset("ANTI", 40, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, dir, "hotels", other, 1, 2)

	cfg := config{dataDir: dir, wal: true, walSync: "always", cacheCap: 16}
	walMgr := newWALManager(dir, wal.SyncAlways, 0, log.New(io.Discard, "", 0))
	defer walMgr.Close()
	_, err = cfg.buildRegistry(log.New(io.Discard, "", 0), walMgr)
	if err == nil || !strings.Contains(err.Error(), "does not apply to snapshot") {
		t.Fatalf("mismatched WAL accepted: %v", err)
	}
}

// TestBuildRegistryCompactsSnapshottedPrefix: when the snapshot already
// contains a prefix of the log (a -resnapshot landed but the process died
// before compacting), startup replays only the suffix and drops the rest.
func TestBuildRegistryCompactsSnapshottedPrefix(t *testing.T) {
	dir := t.TempDir()
	base := walTestDataset(t, dir, "hotels")
	mid := appendChain(t, dir, "hotels", base, 1, 2)
	// The snapshot advances to the state after record 2; records 1-2 are
	// now superseded, record 3 is not.
	want := appendChain(t, dir, "hotels", mid, 3, 1)
	if err := mid.WriteSnapshotFile(filepath.Join(dir, "hotels.snap")); err != nil {
		t.Fatal(err)
	}

	cfg := config{dataDir: dir, wal: true, walSync: "always", cacheCap: 16}
	walMgr := newWALManager(dir, wal.SyncAlways, 0, log.New(io.Discard, "", 0))
	reg, err := cfg.buildRegistry(log.New(io.Discard, "", 0), walMgr)
	if err != nil {
		t.Fatal(err)
	}
	eng, release, err := reg.Acquire("hotels")
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Dataset().Fingerprint(); got != want.Fingerprint() {
		t.Fatalf("serving fingerprint %s, want chain head %s", got, want.Fingerprint())
	}
	release()
	st, ok := walMgr.Stats("hotels")
	if !ok || st.Records != 1 {
		t.Fatalf("log holds %d records after startup compaction, want 1 (stats ok=%v)", st.Records, ok)
	}
	walMgr.Close()
}

// TestWarnStrayWALs: a .wal with no matching .snap draws a startup
// warning naming the file, and is never deleted.
func TestWarnStrayWALs(t *testing.T) {
	dir := t.TempDir()
	walTestDataset(t, dir, "hotels")
	strayPath := filepath.Join(dir, "ghost.wal")
	if err := os.WriteFile(strayPath, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	served := func(name string) bool { return name == "hotels" }
	warnStrayWALs(dir, served, log.New(&buf, "", 0))
	out := buf.String()
	if !strings.Contains(out, "ghost.wal") || !strings.Contains(out, "cannot be replayed") {
		t.Fatalf("stray WAL warning missing: %q", out)
	}
	if strings.Contains(out, "hotels.wal") {
		t.Fatalf("warned about a served dataset's log: %q", out)
	}
	if _, err := os.Stat(strayPath); err != nil {
		t.Fatalf("stray WAL was touched: %v", err)
	}
}
