package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

func encodeV2(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	raw, err := EncodeV2(s)
	if err != nil {
		t.Fatalf("EncodeV2: %v", err)
	}
	return raw
}

// toFloat32 rounds vals to the nearest float32 in place and reports how
// many moved. Float32 files are input-only now — nothing in the repository
// quantises — so the tests that need one prepare its points themselves.
func toFloat32(vals []float64) (changed int) {
	for i, v := range vals {
		if q := float64(float32(v)); q != v {
			vals[i] = q
			changed++
		}
	}
	return changed
}

func TestV2RoundTrip(t *testing.T) {
	want := sample()
	raw := encodeV2(t, want)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want.FormatVersion = Version2
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// DecodeV2 over the image must agree with the stream reader.
	got2, err := DecodeV2(raw)
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("DecodeV2 disagrees with Read")
	}
}

func TestV2Float32RoundTrip(t *testing.T) {
	want := sample()
	want.Float32 = true
	if changed := toFloat32(want.Points); changed == 0 {
		t.Fatal("sample points were already float32-exact; test is vacuous")
	}
	raw := encodeV2(t, want)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	want.FormatVersion = Version2
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("f32 round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding the decoded snapshot must reproduce the bytes — the
	// canonical-form invariant FuzzRead checks for arbitrary input.
	again := encodeV2(t, got)
	if !bytes.Equal(raw, again) {
		t.Fatal("f32 re-encode is not byte-identical")
	}
}

func TestV2WriteIsDeterministic(t *testing.T) {
	a := encodeV2(t, sample())
	b := encodeV2(t, sample())
	if !bytes.Equal(a, b) {
		t.Fatal("EncodeV2 is not deterministic")
	}
}

func TestV2EncodeRejectsUnquantizedFloat32(t *testing.T) {
	s := sample()
	s.Float32 = true // points still hold full-precision values
	if _, err := EncodeV2(s); err == nil {
		t.Fatal("EncodeV2 accepted unquantized float32 points")
	}
}

func TestV2OpenView(t *testing.T) {
	s := sample()
	raw := encodeV2(t, s)
	v, err := Open(raw)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if v.Dim != s.Dim || v.Count != s.Count || v.PageSize != s.PageSize ||
		v.QuadMaxPartial != s.QuadMaxPartial || v.QuadMaxDepth != s.QuadMaxDepth ||
		v.Root != s.Root || v.Height != s.Height || v.Fingerprint != s.Fingerprint ||
		v.Float32 || v.NumPages() != len(s.Pages) {
		t.Fatalf("view header mismatch: %+v", v)
	}
	if v.Size() != int64(len(raw)) {
		t.Fatalf("Size = %d, want %d", v.Size(), len(raw))
	}
	for i := range s.Pages {
		id, data := v.Page(i)
		if id != s.Pages[i].ID || !bytes.Equal(data, s.Pages[i].Data) {
			t.Fatalf("page %d mismatch", i)
		}
	}
	if !v.PointsZeroCopy() {
		t.Fatal("aligned float64 points should be zero-copy")
	}
	pts := v.Points()
	if !reflect.DeepEqual(pts, s.Points) {
		t.Fatalf("points mismatch: %v", pts)
	}
	// The zero-copy slice must alias the image.
	le := binary.LittleEndian
	pointsOff := le.Uint64(raw[56:])
	if math.Float64bits(pts[0]) != le.Uint64(raw[pointsOff:]) {
		t.Fatal("Points does not alias the image")
	}
}

func TestV2OpenFloat32View(t *testing.T) {
	s := sample()
	s.Float32 = true
	toFloat32(s.Points)
	v, err := Open(encodeV2(t, s))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !v.Float32 || v.PointsZeroCopy() {
		t.Fatal("float32 view should materialize points")
	}
	if !reflect.DeepEqual(v.Points(), s.Points) {
		t.Fatal("materialized float32 points mismatch")
	}
}

// TestV2TruncationAtEverySectionBoundary truncates the image at each
// section boundary (and one byte either side) — every cut must fail typed,
// never panic or read out of bounds.
func TestV2TruncationAtEverySectionBoundary(t *testing.T) {
	raw := encodeV2(t, sample())
	le := binary.LittleEndian
	boundaries := []int{
		0, 8, 12, v2HeaderLen,
		v2HeaderLen + int(le.Uint32(raw[108:])), // fingerprint end
		int(le.Uint64(raw[56:])),                // pointsOff
		int(le.Uint64(raw[56:]) + le.Uint64(raw[64:])),
		int(le.Uint64(raw[72:])), // dirOff
		int(le.Uint64(raw[72:]) + le.Uint64(raw[80:])),
		int(le.Uint64(raw[88:])), // pagesOff
		int(le.Uint64(raw[88:]) + le.Uint64(raw[96:])),
		len(raw) - 1,
	}
	for _, b := range boundaries {
		for _, cut := range []int{b - 1, b, b + 1} {
			if cut < 0 || cut >= len(raw) {
				continue
			}
			if _, err := Open(raw[:cut]); !errors.Is(err, ErrInvalid) {
				t.Fatalf("truncation at %d: got %v, want typed ErrInvalid", cut, err)
			}
			if _, err := Read(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Read truncation at %d: got %v, want typed ErrInvalid", cut, err)
			}
		}
	}
}

// TestV2EveryBitFlipIsCaught flips each byte of the image in turn; Read
// (full validation including the file CRC) must reject every mutation with
// a typed error.
func TestV2EveryBitFlipIsCaught(t *testing.T) {
	raw := encodeV2(t, sample())
	for i := range raw {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x5A
		s, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d: read succeeded (%+v)", i, s)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("flip at byte %d: error %v is not typed ErrInvalid", i, err)
		}
	}
}

// TestV2DirectoryBitFlipCaughtByOpen proves the mmap fast path (Open,
// which skips the whole-file CRC) still catches directory corruption: the
// directory has its own CRC.
func TestV2DirectoryBitFlipCaughtByOpen(t *testing.T) {
	raw := encodeV2(t, sample())
	dirOff := int(binary.LittleEndian.Uint64(raw[72:]))
	dirLen := int(binary.LittleEndian.Uint64(raw[80:]))
	for off := dirOff; off < dirOff+dirLen; off++ {
		mut := bytes.Clone(raw)
		mut[off] ^= 0x01
		if _, err := Open(mut); !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("directory flip at %d: got %v, want ErrChecksum/ErrCorrupt", off, err)
		}
	}
	// Header corruption likewise.
	for _, off := range []int{16, 24, 40, 56, 72, 88, 104} {
		mut := bytes.Clone(raw)
		mut[off] ^= 0x01
		if _, err := Open(mut); !errors.Is(err, ErrInvalid) {
			t.Fatalf("header flip at %d: got %v, want typed ErrInvalid", off, err)
		}
	}
	// Points corruption is caught by the points CRC.
	pointsOff := int(binary.LittleEndian.Uint64(raw[56:]))
	mut := bytes.Clone(raw)
	mut[pointsOff+3] ^= 0x01
	if _, err := Open(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("points flip: got %v, want ErrChecksum", err)
	}
}

// TestV2PageCorruptionCaughtByDecodeNotOpen documents the split validation
// contract: Open skips page payloads (cold-start cost), Decode covers them
// via the file CRC.
func TestV2PageCorruptionCaughtByDecodeNotOpen(t *testing.T) {
	raw := encodeV2(t, sample())
	pagesOff := int(binary.LittleEndian.Uint64(raw[88:]))
	mut := bytes.Clone(raw)
	mut[pagesOff] ^= 0x01
	if _, err := Open(mut); err != nil {
		t.Fatalf("Open rejected page-payload corruption it does not cover: %v", err)
	}
	if _, err := DecodeV2(mut); !errors.Is(err, ErrChecksum) {
		t.Fatalf("DecodeV2: got %v, want ErrChecksum", err)
	}
}

func TestV2TrailingGarbageRejected(t *testing.T) {
	raw := append(encodeV2(t, sample()), 0)
	if _, err := Open(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestV2NonCanonicalOffsetRejected(t *testing.T) {
	raw := encodeV2(t, sample())
	// Shift the stored pointsOff by 8 and fix the header CRC so only the
	// canonical-layout check can catch it.
	le := binary.LittleEndian
	le.PutUint64(raw[56:], le.Uint64(raw[56:])+8)
	fpLen := int(le.Uint32(raw[108:]))
	hdrEnd := v2HeaderLen + fpLen
	le.PutUint32(raw[hdrEnd:], crc32Of(raw[:hdrEnd]))
	if _, err := Open(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestV2NaNFloat32Rejected(t *testing.T) {
	s := sample()
	s.Float32 = true
	toFloat32(s.Points)
	raw := encodeV2(t, s)
	le := binary.LittleEndian
	pointsOff := int(le.Uint64(raw[56:]))
	le.PutUint32(raw[pointsOff:], math.Float32bits(float32(math.NaN())))
	le.PutUint32(raw[104:], crc32Of(raw[pointsOff:pointsOff+int(le.Uint64(raw[64:]))]))
	fpLen := int(le.Uint32(raw[108:]))
	le.PutUint32(raw[v2HeaderLen+fpLen:], crc32Of(raw[:v2HeaderLen+fpLen]))
	if _, err := Open(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestV2OpenRejectsV1(t *testing.T) {
	raw := fixtureV1(t)
	if _, err := Open(raw); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func crc32Of(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}
