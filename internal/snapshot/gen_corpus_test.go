package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenerateFuzzCorpus (re)generates the committed seed corpus under
// testdata/fuzz/FuzzRead. It is skipped unless GEN_FUZZ_CORPUS=1, because
// its job is to produce checked-in files, not to test anything:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/snapshot -run TestGenerateFuzzCorpus
//
// The corpus holds valid snapshot images (the committed legacy v1 fixture
// — nothing writes v1 any more — and a freshly encoded v2 image) plus
// systematic truncations and bit flips of them — the interesting entry points into the decoder (every
// header field boundary, the checksum trailer) that random fuzzing would
// otherwise have to rediscover. Plain `go test` replays every committed
// entry through FuzzRead on every run.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzRead")
	}
	// Legacy v1 entries come from the committed fixture. (The un-prefixed
	// seed-valid, seed-trunc-* and seed-flip-* files are tiny v1 images from
	// the days of a v1 writer; they stay committed as they are and cannot be
	// regenerated.)
	img := fixtureV1(t)
	corpus := map[string][]byte{
		"v1-valid":         img,
		"v1-trunc-points":  img[:len(img)/4],
		"v1-trunc-trailer": img[:len(img)-2],
	}
	// One bit flip per region: a header length field, the page section, the
	// CRC trailer.
	for name, off := range map[string]int{
		"v1-flip-count": 22,
		"v1-flip-pages": len(img) - 40,
		"v1-flip-crc":   len(img) - 1,
	} {
		b := bytes.Clone(img)
		b[off] ^= 0x01
		corpus[name] = b
	}

	// v2 seeds: a small snapshot in the flat mmap-able layout, its float32
	// sibling, and corruptions aimed at the v2-specific validators (header
	// CRC, directory CRC, canonical offsets, trailing file CRC).
	imgV2, err := EncodeV2(fuzzBaseSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	f32snap := fuzzBaseSnapshot()
	f32snap.Float32 = true
	toFloat32(f32snap.Points)
	imgF32, err := EncodeV2(f32snap)
	if err != nil {
		t.Fatal(err)
	}
	corpus["v2-valid"] = imgV2
	corpus["v2-f32-valid"] = imgF32
	corpus["v2-trunc-header"] = imgV2[:60]
	corpus["v2-trunc-points"] = imgV2[:int(imgV2[56])+8] // inside the points section
	corpus["v2-trunc-trailer"] = imgV2[:len(imgV2)-2]
	for name, off := range map[string]int{
		"v2-flip-flags":     12,
		"v2-flip-pointsoff": 56,
		"v2-flip-dir":       len(imgV2) - 24,
		"v2-flip-crc":       len(imgV2) - 1,
	} {
		b := bytes.Clone(imgV2)
		b[off] ^= 0x01
		corpus[name] = b
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpus {
		// The Go fuzzing corpus file format: a version line, then one
		// quoted Go value per fuzz argument.
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(corpus), dir)
}
