package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
)

// sample builds a small but fully populated snapshot value.
func sample() *Snapshot {
	return &Snapshot{
		Fingerprint:    "0123456789abcdef0123456789abcdef",
		Dim:            3,
		Count:          4,
		PageSize:       4096,
		QuadMaxPartial: 12,
		QuadMaxDepth:   9,
		Root:           7,
		Height:         2,
		Points: []float64{
			0.1, 0.2, 0.3,
			0.4, 0.5, 0.6,
			math.Pi, math.E, math.Sqrt2,
			1, 0, 0.5,
		},
		Pages: []Page{
			{ID: 1, Data: []byte{1, 2, 3, 4}},
			{ID: 2, Data: bytes.Repeat([]byte{0xAB}, 128)},
			{ID: 7, Data: []byte{9}},
		},
	}
}

// The committed legacy fixture: repro.GenerateDataset("IND", 200, 3, 1) as
// written by the v1 writer in the last commit that had one. Nothing writes
// v1 any more, so these bytes are what the v1 arm of Read is tested on.
const (
	v1FixturePath   = "testdata/v1_ind_n200_d3.snap"
	v1FixtureSHA256 = "d133d2dd47a10a7306aa4fb3129ee148da790cb3b7ce63ed98e9cc406a31020c"
)

// fixtureV1 returns a private copy of the v1 fixture's bytes.
func fixtureV1(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != v1FixtureSHA256 {
		t.Fatalf("%s changed: sha256 %x", v1FixturePath, sum)
	}
	return raw
}

// TestRoundTrip: the v1 fixture decodes, and its conversion — the v1 value
// re-encoded as v2 — decodes back to the same value.
func TestRoundTrip(t *testing.T) {
	got, err := Read(bytes.NewReader(fixtureV1(t)))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.FormatVersion != Version1 || got.Dim != 3 || got.Count != 200 || got.Float32 || len(got.Pages) == 0 {
		t.Fatalf("fixture decoded as v%d, %d×%d, float32 %t, %d pages", got.FormatVersion, got.Count, got.Dim, got.Float32, len(got.Pages))
	}
	img, err := EncodeV2(got)
	if err != nil {
		t.Fatalf("EncodeV2: %v", err)
	}
	again, err := DecodeV2(img)
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	got.FormatVersion = Version2
	if !reflect.DeepEqual(again, got) {
		t.Fatal("v1 → v2 conversion changed the snapshot value")
	}
}

// TestWriteIsDeterministic: the writer emits exactly the canonical image,
// every time.
func TestWriteIsDeterministic(t *testing.T) {
	want, err := EncodeV2(sample())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if err := WriteV2(&buf, sample()); err != nil {
			t.Fatalf("WriteV2: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("WriteV2 output differs from the canonical image")
		}
	}
}

func TestTruncatedAtEveryOffset(t *testing.T) {
	raw := fixtureV1(t)
	for cut := 0; cut < len(raw); cut++ {
		_, err := Read(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("Read of %d/%d bytes succeeded", cut, len(raw))
		}
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("cut at %d: error %v is not typed ErrInvalid", cut, err)
		}
		// Cuts beyond the fixed header are always plain truncation; cuts
		// within it may legitimately surface as bad magic instead.
		if cut >= len(Magic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: error %v is neither ErrTruncated nor ErrCorrupt", cut, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	raw := fixtureV1(t)
	raw[0] ^= 0xFF
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	if _, err := Read(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestVersionFromTheFuture(t *testing.T) {
	raw := fixtureV1(t)
	binary.LittleEndian.PutUint32(raw[len(Magic):], Version+1)
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("%v does not wrap ErrInvalid", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	raw := fixtureV1(t)
	// Flip one bit in the middle of the points payload: structure stays
	// plausible, so only the CRC trailer can catch it.
	raw[len(raw)/2] ^= 0x01
	_, err := Read(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("corrupted snapshot read succeeded")
	}
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("error %v is not typed ErrInvalid", err)
	}
}

// TestEveryBitFlipIsCaught flips each byte of the stream in turn: every
// mutation must yield a typed error or (for trailer-adjacent flips that
// keep structure and CRC consistent — impossible for a CRC, but kept
// general) a clean read; it must never panic.
func TestEveryBitFlipIsCaught(t *testing.T) {
	raw := fixtureV1(t)
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

func TestChecksumTrailerMismatch(t *testing.T) {
	raw := fixtureV1(t)
	raw[len(raw)-1] ^= 0xFF // corrupt the stored CRC itself
	_, err := Read(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestOversizedPageRejected(t *testing.T) {
	s := sample()
	s.Pages[0].Data = bytes.Repeat([]byte{1}, s.PageSize+1)
	if _, err := EncodeV2(s); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("EncodeV2 accepted an oversized page: %v", err)
	}
}

func TestWriteValidation(t *testing.T) {
	cases := map[string]func(*Snapshot){
		"nil points":      func(s *Snapshot) { s.Points = nil },
		"dim too small":   func(s *Snapshot) { s.Dim = 1 },
		"zero count":      func(s *Snapshot) { s.Count = 0; s.Points = nil },
		"bad root":        func(s *Snapshot) { s.Root = 0 },
		"bad height":      func(s *Snapshot) { s.Height = 0 },
		"no pages":        func(s *Snapshot) { s.Pages = nil },
		"bad page id":     func(s *Snapshot) { s.Pages[0].ID = -1 },
		"tiny page size":  func(s *Snapshot) { s.PageSize = 8 },
		"negative quad":   func(s *Snapshot) { s.QuadMaxDepth = -1 },
		"huge quad":       func(s *Snapshot) { s.QuadMaxPartial = MaxQuadParam + 1 },
		"duplicate page":  func(s *Snapshot) { s.Pages[1].ID = s.Pages[0].ID },
		"unsorted pages":  func(s *Snapshot) { s.Pages[0], s.Pages[2] = s.Pages[2], s.Pages[0] },
		"count mismatch":  func(s *Snapshot) { s.Count = 5 },
		"points mismatch": func(s *Snapshot) { s.Points = s.Points[:6] },
	}
	for name, mutate := range cases {
		s := sample()
		mutate(s)
		if _, err := EncodeV2(s); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: EncodeV2 error = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestHugeDeclaredCountDoesNotAllocate: a crafted header whose count
// passes the sanity cap must fail with ErrTruncated when the stream runs
// dry — not abort the process by preallocating count×dim float64s.
func TestHugeDeclaredCountDoesNotAllocate(t *testing.T) {
	raw := fixtureV1(t)
	// count is the u64 after magic(8) + version(4) + flags(4) + dim(4).
	binary.LittleEndian.PutUint64(raw[20:], 1<<34-1)
	_, err := Read(bytes.NewReader(raw[:len(raw)-4]))
	if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrTruncated or ErrCorrupt", err)
	}
}

func TestEmptyInput(t *testing.T) {
	_, err := Read(bytes.NewReader(nil))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}
