package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// fuzzBaseSnapshot is a small but fully populated snapshot used to derive
// the seed corpus: valid bytes, truncations and bit flips of them.
func fuzzBaseSnapshot() *Snapshot {
	points := make([]float64, 0, 6*3)
	for i := 0; i < 6; i++ {
		points = append(points, float64(i)/7, float64(i*i)/36, 1-float64(i)/6)
	}
	return &Snapshot{
		Fingerprint:    "deadbeefcafe",
		Dim:            3,
		Count:          6,
		PageSize:       128,
		QuadMaxPartial: 4,
		QuadMaxDepth:   8,
		Root:           3,
		Height:         2,
		Points:         points,
		Pages: []Page{
			{ID: 1, Data: bytes.Repeat([]byte{0xAA}, 64)},
			{ID: 2, Data: bytes.Repeat([]byte{0x55}, 32)},
			{ID: 3, Data: []byte{1, 2, 3, 4}},
		},
	}
}

// FuzzRead is the decoder robustness harness: for ANY input bytes, Read
// must return either a decoded snapshot or an error wrapping ErrInvalid —
// never panic, and never trust a header length into a huge allocation
// (the decode limits cap every size field before it is believed).
//
// When Read succeeds on a v2 image, the decode must be canonical:
// re-encoding the decoded snapshot reproduces the input bytes exactly.
// Whatever version arrived, the decoded value must encode as v2 — the
// conversion every legacy v1 load goes through — and decode back to an
// identical value. The committed corpus under testdata/fuzz/FuzzRead
// (valid, truncated and bit-flipped images; see TestGenerateFuzzCorpus) is
// replayed by every plain `go test` run.
func FuzzRead(f *testing.F) {
	validV1 := fixtureV1(f)
	f.Add(validV1)
	f.Add(validV1[:len(validV1)/4]) // truncated mid-points
	f.Add(validV1[:11])             // truncated mid-header
	flipped := bytes.Clone(validV1)
	flipped[20] ^= 0x40 // corrupt a header field under the checksum
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("MXRQSNAP"))
	f.Add([]byte("not a snapshot at all"))
	// v2 seeds: a valid image, its float32 sibling, and corruptions that
	// target the v2-specific validation (directory CRC, canonical offsets).
	validV2, err := EncodeV2(fuzzBaseSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validV2)
	f.Add(validV2[:len(validV2)/2])
	f32snap := fuzzBaseSnapshot()
	f32snap.Float32 = true
	toFloat32(f32snap.Points)
	validF32, err := EncodeV2(f32snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validF32)
	dirFlip := bytes.Clone(validV2)
	dirFlip[len(dirFlip)-24] ^= 0x02
	f.Add(dirFlip)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded input: decode limits are exercised well below 1 MiB")
		}
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("Read error does not wrap ErrInvalid: %v", err)
			}
			return
		}
		// Success: the snapshot must satisfy its own invariants ...
		if err := s.validate(); err != nil {
			t.Fatalf("Read accepted a snapshot its own validate rejects: %v", err)
		}
		// ... encode as v2 — for an input that was v2 already, to exactly
		// the input bytes (v2 admits one layout per value and no trailing
		// bytes) ...
		var out bytes.Buffer
		if err := WriteV2(&out, s); err != nil {
			t.Fatalf("EncodeV2 rejected a snapshot Read produced: %v", err)
		}
		if s.FormatVersion == Version2 && !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("v2 re-encode diverges from accepted input (%d bytes in, %d re-encoded)", len(data), out.Len())
		}
		// ... and decode back to an identical value.
		s.FormatVersion = Version2
		s2, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("round-trip decode produced a different snapshot")
		}
	})
}
