package repro_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/snapshot"
)

// roundTripDataset writes ds to a snapshot and loads it back.
func roundTripDataset(t testing.TB, ds *repro.Dataset, opts ...repro.DatasetOption) *repro.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	loaded, err := repro.LoadSnapshot(bytes.NewReader(buf.Bytes()), opts...)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return loaded
}

// TestSnapshotRoundTripBitIdentical is the PR acceptance test: an engine
// built from a snapshot must produce bit-identical Results — regions,
// ranks, witnesses, constraints, OutrankIDs and Stats.IO — to an engine
// bulk-loaded from the same raw points, across every algorithm and data
// distribution.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	cases := []struct {
		dim  int
		algs []repro.Algorithm
	}{
		// d = 2 exercises FCA, BA and AA's sorted-list specialisation
		// (the paper's AA2D); d = 3 exercises general BA and AA.
		{2, []repro.Algorithm{repro.FCA, repro.BA, repro.AA}},
		{3, []repro.Algorithm{repro.BA, repro.AA}},
	}
	for _, dist := range []string{"IND", "COR", "ANTI"} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/d%d", dist, tc.dim), func(t *testing.T) {
				built, err := repro.GenerateDataset(dist, 600, tc.dim, 7)
				if err != nil {
					t.Fatal(err)
				}
				loaded := roundTripDataset(t, built)
				if built.Fingerprint() != loaded.Fingerprint() {
					t.Fatalf("fingerprint changed across round trip: %s vs %s",
						built.Fingerprint(), loaded.Fingerprint())
				}
				engBuilt, err := repro.NewEngine(built)
				if err != nil {
					t.Fatal(err)
				}
				engLoaded, err := repro.NewEngine(loaded)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for _, alg := range tc.algs {
					for _, tau := range []int{0, 2} {
						for _, focal := range []int{3, 17, 255} {
							a, err := engBuilt.Query(ctx, focal,
								repro.WithAlgorithm(alg), repro.WithTau(tau), repro.WithOutrankIDs(true))
							if err != nil {
								t.Fatalf("%v tau=%d focal=%d (built): %v", alg, tau, focal, err)
							}
							b, err := engLoaded.Query(ctx, focal,
								repro.WithAlgorithm(alg), repro.WithTau(tau), repro.WithOutrankIDs(true))
							if err != nil {
								t.Fatalf("%v tau=%d focal=%d (loaded): %v", alg, tau, focal, err)
							}
							if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
								t.Fatalf("%v tau=%d focal=%d: results differ across snapshot round trip\n built: %+v\nloaded: %+v",
									alg, tau, focal, answerOf(a), answerOf(b))
							}
							if a.Stats.IO != b.Stats.IO {
								t.Fatalf("%v tau=%d focal=%d: IO %d vs %d", alg, tau, focal, a.Stats.IO, b.Stats.IO)
							}
							if err := repro.Validate(loaded, focal, b); err != nil {
								t.Fatalf("loaded result fails validation: %v", err)
							}
						}
					}
				}
			})
		}
	}
}

// TestSnapshotDeterministicBytes: the same dataset must serialise to the
// same bytes, so snapshot files can themselves be fingerprinted.
func TestSnapshotDeterministicBytes(t *testing.T) {
	ds := genDS(t, "IND", 300, 3)
	var a, b bytes.Buffer
	if err := ds.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two snapshots of one dataset differ")
	}
}

// TestSnapshotPreservesQuadDefaults: partitioning tuned at build time must
// survive persistence and shape loaded-engine results exactly like it
// shaped built-engine results.
func TestSnapshotPreservesQuadDefaults(t *testing.T) {
	built, err := repro.GenerateDataset("ANTI", 500, 3, 9, repro.WithQuadDefaults(6, 5))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTripDataset(t, built)
	mp, md := loaded.QuadDefaults()
	if mp != 6 || md != 5 {
		t.Fatalf("loaded quad defaults (%d, %d), want (6, 5)", mp, md)
	}
	engBuilt, _ := repro.NewEngine(built)
	engLoaded, _ := repro.NewEngine(loaded)
	a, err := engBuilt.Query(context.Background(), 11, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engLoaded.Query(context.Background(), 11, repro.WithTau(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(answerOf(a), answerOf(b)) {
		t.Fatal("results differ under persisted quad defaults")
	}
}

// TestEngineSnapshot: Engine.Snapshot is Dataset.WriteSnapshot.
func TestEngineSnapshot(t *testing.T) {
	ds := genDS(t, "COR", 200, 2)
	eng, err := repro.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	var viaEngine, viaDataset bytes.Buffer
	if err := eng.Snapshot(&viaEngine); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(&viaDataset); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaEngine.Bytes(), viaDataset.Bytes()) {
		t.Fatal("Engine.Snapshot differs from Dataset.WriteSnapshot")
	}
}

// TestLoadSnapshotFingerprintMismatch: a structurally valid snapshot whose
// points no longer hash to the recorded fingerprint must be rejected with
// the typed error.
func TestLoadSnapshotFingerprintMismatch(t *testing.T) {
	ds := genDS(t, "IND", 100, 3)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	snap.Points[0] += 0.25 // tamper, then re-encode with a fresh (valid) CRC
	var tampered bytes.Buffer
	if err := snapshot.WriteV2(&tampered, snap); err != nil {
		t.Fatal(err)
	}
	_, err = repro.LoadSnapshot(bytes.NewReader(tampered.Bytes()))
	if !errors.Is(err, repro.ErrSnapshotMismatch) {
		t.Fatalf("got %v, want ErrSnapshotMismatch", err)
	}
	if !errors.Is(err, snapshot.ErrInvalid) {
		t.Fatalf("%v does not wrap snapshot.ErrInvalid", err)
	}
}

// TestFingerprintPinned: the content digest is a format, not an
// implementation detail — snapshots and the WAL's fingerprint chain record
// it. A literal computed before the hash was fed through a buffer pins
// it, and the committed v1 fixture still loads, which verifies its points
// against the fingerprint it recorded when it was written.
func TestFingerprintPinned(t *testing.T) {
	ds, err := repro.GenerateDataset("IND", 1000, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ds.Fingerprint(), "b688fa6d889c9c5b4073f15cfa2a0d45"; got != want {
		t.Fatalf("IND n=1000 d=3 seed 7: fingerprint %s, want %s", got, want)
	}
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadSnapshotFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := repro.GenerateDataset("IND", 200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != snap.Fingerprint || built.Fingerprint() != snap.Fingerprint {
		t.Fatalf("v1 fixture records %s; loaded %s, rebuilt %s", snap.Fingerprint, loaded.Fingerprint(), built.Fingerprint())
	}
}

// TestLoadSnapshotCorruptionTyped: the loader surfaces the decoder's typed
// errors for the canonical corruption modes.
func TestLoadSnapshotCorruptionTyped(t *testing.T) {
	ds := genDS(t, "IND", 100, 3)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		_, err := repro.LoadSnapshot(bytes.NewReader(raw[:len(raw)/3]))
		if !errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		mut := bytes.Clone(raw)
		mut[3] ^= 0xFF
		_, err := repro.LoadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		mut := bytes.Clone(raw)
		mut[len(snapshot.Magic)] = 0xEE
		_, err := repro.LoadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})
	t.Run("payload flip", func(t *testing.T) {
		mut := bytes.Clone(raw)
		mut[len(mut)/2] ^= 0x10
		_, err := repro.LoadSnapshot(bytes.NewReader(mut))
		if !errors.Is(err, snapshot.ErrInvalid) {
			t.Fatalf("got %v, want a typed snapshot error", err)
		}
	})
}

// TestLoadSnapshotRejectsNonFinite: a snapshot whose points contain
// NaN/Inf — hand-crafted, or written before construction-time validation
// existed — must fail to load, not poison query answers silently. The
// crafted file carries the *correct* fingerprint of its poisoned points,
// so only the finiteness check can stop it.
func TestLoadSnapshotRejectsNonFinite(t *testing.T) {
	ds := genDS(t, "IND", 50, 3)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		snap.Points[7] = poison
		// Recompute the digest over the poisoned points (same format as
		// Dataset.Fingerprint: sha256 of dim + row-major coordinate bits,
		// first 16 bytes hex).
		h := sha256.New()
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(snap.Dim))
		h.Write(w[:])
		for _, v := range snap.Points {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			h.Write(w[:])
		}
		snap.Fingerprint = hex.EncodeToString(h.Sum(nil)[:16])
		var poisoned bytes.Buffer
		if err := snapshot.WriteV2(&poisoned, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := repro.LoadSnapshot(bytes.NewReader(poisoned.Bytes())); err == nil {
			t.Fatalf("snapshot with %v coordinate loaded", poison)
		}
	}
}

// TestWriteSnapshotVersionOnlyV2: the version-taking file writer survives
// for bench/ alone and accepts exactly what it passes.
func TestWriteSnapshotVersionOnlyV2(t *testing.T) {
	ds := genDS(t, "IND", 50, 2)
	dir := t.TempDir()
	wantPath, path := filepath.Join(dir, "want.snap"), filepath.Join(dir, "ds.snap")
	if err := ds.WriteSnapshotFile(wantPath); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshotFileVersion(path, snapshot.Version2, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("WriteSnapshotFileVersion(2, false) differs from WriteSnapshotFile")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		version int
		f32     bool
	}{{snapshot.Version1, false}, {snapshot.Version2, true}, {3, false}} {
		if err := ds.WriteSnapshotFileVersion(path, bad.version, bad.f32); err == nil {
			t.Fatalf("WriteSnapshotFileVersion(%d, %t) succeeded", bad.version, bad.f32)
		}
		if _, err := os.Stat(path); err == nil {
			t.Fatal("a refused write left a file behind")
		}
	}
}
