package main

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestConfigValidation covers the satellite fix: ambiguous or missing
// dataset sources must fail validation with an explanatory error instead
// of surfacing late (or not at all).
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     config
		wantErr string
	}{
		{"none set", config{}, "no dataset source"},
		{"data and gen", config{dataPath: "x.csv", gen: "IND"}, "conflicting dataset sources"},
		{"data and dir", config{dataPath: "x.csv", dataDir: "/d"}, "conflicting dataset sources"},
		{"gen and dir", config{gen: "IND", dataDir: "/d"}, "conflicting dataset sources"},
		{"all three", config{dataPath: "x.csv", gen: "IND", dataDir: "/d"}, "conflicting dataset sources"},
		{"gen bad shape", config{gen: "IND", n: 10, dim: 1}, "-gen needs"},
		{"data ok", config{dataPath: "x.csv"}, ""},
		{"gen ok", config{gen: "IND", n: 10, dim: 2}, ""},
		{"dir ok", config{dataDir: "/d"}, ""},
		{"resnapshot without dir", config{gen: "IND", n: 10, dim: 2, resnapshot: true}, "-resnapshot needs -data-dir"},
		{"resnapshot with dir", config{dataDir: "/d", resnapshot: true}, ""},
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

// TestBuildRegistryFromSnapshotDir: a -data-dir full of snapshots becomes
// one named engine per file; junk names are rejected.
func TestBuildRegistryFromSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	for i, spec := range []struct {
		name string
		dist string
		n    int
	}{
		{"hotels", "IND", 150},
		{"cars", "ANTI", 120},
	} {
		ds, err := repro.GenerateDataset(spec.dist, spec.n, 3, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, spec.name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteSnapshot(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	cfg := config{dataDir: dir, cacheCap: 16}
	reg, err := cfg.buildRegistry(log.New(io.Discard, "", 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "cars" || names[1] != "hotels" {
		t.Fatalf("registry names = %v, want [cars hotels]", names)
	}
	eng, release, err := reg.Acquire("hotels")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if eng.Dataset().Len() != 150 {
		t.Fatalf("hotels has %d records, want 150", eng.Dataset().Len())
	}
}

// TestBuildRegistryRejectsMissingDir: a typo'd -data-dir must fail
// startup instead of silently serving an empty daemon.
func TestBuildRegistryRejectsMissingDir(t *testing.T) {
	cfg := config{dataDir: filepath.Join(t.TempDir(), "nope")}
	if _, err := cfg.buildRegistry(log.New(io.Discard, "", 0), nil); err == nil {
		t.Fatal("missing -data-dir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = config{dataDir: file}
	if _, err := cfg.buildRegistry(log.New(io.Discard, "", 0), nil); err == nil {
		t.Fatal("-data-dir pointing at a file accepted")
	}
}

// TestBuildRegistryRejectsCorruptSnapshot: a bad file in the directory
// fails startup loudly rather than serving partial data silently.
func TestBuildRegistryRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{dataDir: dir}
	if _, err := cfg.buildRegistry(log.New(io.Discard, "", 0), nil); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}
