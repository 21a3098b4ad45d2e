package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
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
		if err := s.validate(len(s.Points)); err != nil {
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

// randomSnapshot builds a valid snapshot from rng: any shape the format
// allows at a small size, float32 points when f32 is set.
func randomSnapshot(rng *rand.Rand, f32 bool) *Snapshot {
	s := &Snapshot{
		Float32:        f32,
		Fingerprint:    strings.Repeat("f", rng.Intn(41)),
		Dim:            2 + rng.Intn(5),
		Count:          1 + rng.Intn(200),
		PageSize:       64 + rng.Intn(449),
		QuadMaxPartial: rng.Intn(MaxQuadParam + 1),
		QuadMaxDepth:   rng.Intn(64),
		Height:         1 + rng.Intn(4),
	}
	s.Points = make([]float64, s.Count*s.Dim)
	for i := range s.Points {
		s.Points[i] = rng.NormFloat64()
		if f32 {
			s.Points[i] = float64(float32(s.Points[i]))
		}
	}
	id := int64(0)
	for range 1 + rng.Intn(12) {
		id += 1 + rng.Int63n(3)
		data := make([]byte, rng.Intn(s.PageSize+1))
		rng.Read(data)
		s.Pages = append(s.Pages, Page{ID: id, Data: data})
	}
	s.Root = s.Pages[rng.Intn(len(s.Pages))].ID
	return s
}

// FuzzWriteV2Runs holds the streaming encoder to the format: a random
// valid snapshot, its points cut into runs at the offsets cuts gives
// (empty runs included) and the pages whose bit is set in rewrites
// replaced through the scratch buffer, streams exactly the bytes EncodeV2
// lays out for the equivalent flat snapshot, and those bytes open and
// verify. The committed corpus under testdata/fuzz/FuzzWriteV2Runs (see
// TestGenerateFuzzCorpus) runs with every plain `go test`.
func FuzzWriteV2Runs(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 0, 255}, uint64(0b101), false)
	f.Add(int64(2), []byte{}, uint64(0), true)
	f.Fuzz(func(t *testing.T, seed int64, cuts []byte, rewrites uint64, f32 bool) {
		s := randomSnapshot(rand.New(rand.NewSource(seed)), f32)
		var runs [][]float64
		rest := s.Points
		for _, c := range cuts {
			n := min(int(c), len(rest))
			runs, rest = append(runs, rest[:n]), rest[n:]
		}
		runs = append(runs, rest)
		flat := *s
		flat.Pages = slices.Clone(s.Pages)
		for i := range flat.Pages {
			if rewrites>>(i%64)&1 == 1 {
				flat.Pages[i].Data = bytes.Clone(s.Pages[i].Data)
				for j := range flat.Pages[i].Data {
					flat.Pages[i].Data[j] ^= byte(i + j + 1)
				}
			}
		}
		want, err := EncodeV2(&flat)
		if err != nil {
			t.Fatalf("EncodeV2: %v", err)
		}
		s.Points = nil
		var got bytes.Buffer
		err = WriteV2Runs(&got, s, runs, func(p Page, scratch []byte) ([]byte, error) {
			i := slices.IndexFunc(s.Pages, func(q Page) bool { return q.ID == p.ID })
			if len(scratch) != len(p.Data) {
				t.Fatalf("page %d: scratch of %d bytes for %d", p.ID, len(scratch), len(p.Data))
			}
			if rewrites>>(i%64)&1 == 0 {
				return p.Data, nil
			}
			copy(scratch, flat.Pages[i].Data)
			return scratch, nil
		})
		if err != nil {
			t.Fatalf("WriteV2Runs: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("streamed %d bytes differ from the %d-byte encoding", got.Len(), len(want))
		}
		v, err := Open(got.Bytes())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := v.VerifyFile(); err != nil {
			t.Fatalf("VerifyFile: %v", err)
		}
	})
}
