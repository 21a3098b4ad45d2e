// Package snapshot defines the persistent index format of the MaxRank
// system: a versioned, checksummed binary image of one indexed dataset —
// the raw records, every R*-tree page exactly as the pager stores it, and
// the quad-tree partitioning configuration — so a serving process can cold
// start in O(read) instead of O(build). The paper's disk-resident setting
// assumes the indexes already exist on secondary storage; this package is
// that storage format.
//
// One format is written and served: v2 (see v2.go), a flat
// offset-addressed layout that doubles as the runtime format — it can be
// memory-mapped and served zero-copy. Its predecessor v1, the sequential
// stream documented below, is a legacy input: Read still decodes it so old
// files keep loading (callers re-encode the result with EncodeV2), but
// nothing writes it any more.
//
// Version 1 layout (all integers little-endian):
//
//	magic          8 bytes  "MXRQSNAP"
//	version        uint32   format version (1)
//	flags          uint32   reserved, must be 0
//	dim            uint32   record dimensionality
//	count          uint64   record count
//	pageSize       uint32   pager page size in bytes
//	quadMaxPartial uint32   quad-tree leaf split threshold (0 = default)
//	quadMaxDepth   uint32   quad-tree depth cap (0 = dimension default)
//	root           int64    R*-tree root page ID
//	height         uint32   R*-tree height (1 = root is a leaf)
//	fpLen          uint32   fingerprint length, then fpLen bytes (hex digest)
//	points         count*dim float64, row-major
//	numPages       uint64   R*-tree page count
//	pages          numPages × { id int64, len uint32, len bytes }
//	checksum       uint32   CRC-32C (Castagnoli) of every preceding byte
//
// The quad-tree over the reduced preference space is focal-dependent — it
// is built per query from these parameters — so the snapshot persists its
// partitioning configuration rather than an instantiated tree; the R*-tree,
// which is focal-independent, is persisted page for page.
//
// Versioning policy: the magic never changes; version increments on any
// incompatible layout change. Readers reject versions from the future
// (ErrVersion) and keep decoding every past version ever shipped.
// Additive evolution uses the flags word and trailing sections guarded by
// a version bump.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a MaxRank snapshot file.
const Magic = "MXRQSNAP"

// Format versions. Version1 is the original sequential stream documented
// above, read-only since v2 became the only written format; Version2
// (v2.go) is the flat, offset-addressed layout that can be memory-mapped
// and served without decoding. Read decodes both.
const (
	Version1 = 1
	Version2 = 2
	// Version is the newest format version this build reads.
	Version = Version2
)

// VersionOf returns the format version word of a snapshot image, or 0 when
// data is too short to hold one or does not start with the magic. Nothing
// else is validated: loaders use it only to send a legacy v1 stream through
// Read before handing the image to Open.
func VersionOf(data []byte) int {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return 0
	}
	return int(binary.LittleEndian.Uint32(data[len(Magic):]))
}

// Typed failure modes of Read. Every decode failure wraps exactly one of
// these (and all of them wrap ErrInvalid), so callers can branch with
// errors.Is; corrupt input never panics.
var (
	// ErrInvalid is the umbrella error: every snapshot decode failure
	// matches errors.Is(err, ErrInvalid).
	ErrInvalid = errors.New("invalid snapshot")
	// ErrBadMagic marks input that is not a snapshot at all.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrInvalid)
	// ErrVersion marks a snapshot written by a newer format version.
	ErrVersion = fmt.Errorf("%w: unsupported format version", ErrInvalid)
	// ErrTruncated marks input that ends before the format says it should.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrInvalid)
	// ErrChecksum marks a payload whose CRC does not match its trailer.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrInvalid)
	// ErrCorrupt marks structurally impossible field values (a page longer
	// than the page size, a record count that overflows, ...).
	ErrCorrupt = fmt.Errorf("%w: corrupt", ErrInvalid)
)

// Decode limits: far above anything the system produces, low enough that a
// corrupt length field fails with ErrCorrupt instead of exhausting memory.
const (
	maxDim      = 1 << 10
	maxCount    = 1 << 34
	maxPages    = 1 << 30
	maxPageSize = 1 << 24
	maxFpLen    = 1 << 10
)

// MaxQuadParam bounds the persistable quad-tree partitioning parameters.
// Exported so option validation upstream (repro.WithQuadDefaults) can
// reject out-of-range values at dataset construction, before an index is
// built that would only fail here at encode time.
const MaxQuadParam = 1 << 20

// Page is one persisted pager page.
type Page struct {
	ID   int64
	Data []byte
}

// Snapshot is the in-memory form of one persisted index.
type Snapshot struct {
	// FormatVersion is the version read from the stream (0 on a value that
	// was not read; EncodeV2 ignores it and always emits Version2).
	FormatVersion uint32
	// Float32 marks a v2 snapshot whose points are stored as float32
	// (FlagFloat32). Read sets it; EncodeV2 honours it, so an existing
	// float32 file re-encodes canonically. The materialized Points are
	// always float64 — every float32 converts exactly.
	Float32 bool
	// Fingerprint is the dataset content digest (repro.Dataset.Fingerprint)
	// recorded at write time; loaders verify it against the points.
	Fingerprint string
	// Dim and Count describe the dataset shape.
	Dim   int
	Count int
	// PageSize is the pager page size the R*-tree pages were encoded for.
	PageSize int
	// QuadMaxPartial and QuadMaxDepth are the dataset's default quad-tree
	// partitioning parameters (0 = library default).
	QuadMaxPartial int
	QuadMaxDepth   int
	// Root and Height locate the R*-tree within Pages.
	Root   int64
	Height int
	// Points holds the records, row-major (Count × Dim).
	Points []float64
	// Pages holds every R*-tree page, ascending by ID.
	Pages []Page
}

// validate checks the structural invariants shared by EncodeV2 and Read.
func (s *Snapshot) validate() error {
	switch {
	case s.Dim < 2 || s.Dim > maxDim:
		return fmt.Errorf("%w: dimensionality %d", ErrCorrupt, s.Dim)
	case s.Count < 1 || int64(s.Count) > maxCount:
		return fmt.Errorf("%w: record count %d", ErrCorrupt, s.Count)
	case len(s.Points) != s.Count*s.Dim:
		return fmt.Errorf("%w: %d point values for %d×%d records", ErrCorrupt, len(s.Points), s.Count, s.Dim)
	case s.PageSize < 64 || s.PageSize > maxPageSize:
		return fmt.Errorf("%w: page size %d", ErrCorrupt, s.PageSize)
	// Same bounds on both sides: a snapshot that encodes must read
	// back, and a 4-byte field must never silently truncate a larger value.
	case s.QuadMaxPartial < 0 || s.QuadMaxPartial > MaxQuadParam,
		s.QuadMaxDepth < 0 || s.QuadMaxDepth > MaxQuadParam:
		return fmt.Errorf("%w: quad-tree parameters (%d, %d) out of [0, %d]", ErrCorrupt, s.QuadMaxPartial, s.QuadMaxDepth, MaxQuadParam)
	case s.Root <= 0:
		return fmt.Errorf("%w: root page %d", ErrCorrupt, s.Root)
	case s.Height < 1:
		return fmt.Errorf("%w: height %d", ErrCorrupt, s.Height)
	case len(s.Pages) < 1 || len(s.Pages) > maxPages:
		return fmt.Errorf("%w: page count %d", ErrCorrupt, len(s.Pages))
	case len(s.Fingerprint) > maxFpLen:
		return fmt.Errorf("%w: fingerprint length %d", ErrCorrupt, len(s.Fingerprint))
	}
	for i := range s.Pages {
		p := &s.Pages[i]
		if p.ID <= 0 {
			return fmt.Errorf("%w: page %d has id %d", ErrCorrupt, i, p.ID)
		}
		// Strictly ascending IDs: the documented invariant, and what stops
		// a duplicate ID from silently overwriting a page during restore.
		if i > 0 && p.ID <= s.Pages[i-1].ID {
			return fmt.Errorf("%w: page ids not strictly ascending (%d after %d)", ErrCorrupt, p.ID, s.Pages[i-1].ID)
		}
		if len(p.Data) > s.PageSize {
			return fmt.Errorf("%w: page %d holds %d bytes, page size %d", ErrCorrupt, p.ID, len(p.Data), s.PageSize)
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reader decodes the stream while maintaining the running CRC.
type reader struct {
	r   io.Reader
	sum hash.Hash32
	buf [8]byte
}

// read fills dst fully, mapping EOF to ErrTruncated.
func (rd *reader) read(dst []byte) error {
	if _, err := io.ReadFull(rd.r, dst); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return ErrTruncated
		}
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	rd.sum.Write(dst)
	return nil
}

func (rd *reader) uint(width int) (uint64, error) {
	if err := rd.read(rd.buf[:width]); err != nil {
		return 0, err
	}
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(rd.buf[i])
	}
	return v, nil
}

// Read decodes a snapshot, verifying magic, version and checksum. Failures
// are typed (ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum,
// ErrCorrupt — all wrapping ErrInvalid); corrupt input never panics.
func Read(r io.Reader) (*Snapshot, error) {
	rd := &reader{r: bufio.NewReader(r), sum: crc32.New(castagnoli)}
	magic := make([]byte, len(Magic))
	if err := rd.read(magic); err != nil {
		return nil, err
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic)
	}
	version, err := rd.uint(4)
	if err != nil {
		return nil, err
	}
	if version == 0 || version > Version {
		return nil, fmt.Errorf("%w: %d (this build reads up to %d)", ErrVersion, version, Version)
	}
	if version == Version2 {
		// v2 is offset-addressed, not sequential: drain the stream and
		// decode the image as a whole.
		return readV2(rd.r)
	}
	flags, err := rd.uint(4)
	if err != nil {
		return nil, err
	}
	if flags != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	s := &Snapshot{FormatVersion: uint32(version)}
	hdr := []struct {
		dst   *int
		width int
		max   uint64
	}{
		{&s.Dim, 4, maxDim},
		{&s.Count, 8, maxCount},
		{&s.PageSize, 4, maxPageSize},
		{&s.QuadMaxPartial, 4, MaxQuadParam},
		{&s.QuadMaxDepth, 4, MaxQuadParam},
	}
	for _, f := range hdr {
		v, err := rd.uint(f.width)
		if err != nil {
			return nil, err
		}
		if v > f.max {
			return nil, fmt.Errorf("%w: header field %d out of range", ErrCorrupt, v)
		}
		*f.dst = int(v)
	}
	root, err := rd.uint(8)
	if err != nil {
		return nil, err
	}
	s.Root = int64(root)
	height, err := rd.uint(4)
	if err != nil {
		return nil, err
	}
	s.Height = int(height)
	fpLen, err := rd.uint(4)
	if err != nil {
		return nil, err
	}
	if fpLen > maxFpLen {
		return nil, fmt.Errorf("%w: fingerprint length %d", ErrCorrupt, fpLen)
	}
	fp := make([]byte, fpLen)
	if err := rd.read(fp); err != nil {
		return nil, err
	}
	s.Fingerprint = string(fp)
	if s.Dim < 2 || s.Count < 1 {
		return nil, fmt.Errorf("%w: %d records × %d dims", ErrCorrupt, s.Count, s.Dim)
	}
	// Grow the points buffer as data actually arrives rather than trusting
	// the header's count up front: a crafted count within the (generous)
	// sanity cap must fail with ErrTruncated once the stream runs dry, not
	// abort the process on a huge allocation.
	nvals := s.Count * s.Dim
	s.Points = make([]float64, 0, minInt(nvals, 1<<16))
	raw := make([]byte, 8*4096)
	for off := 0; off < nvals; {
		chunk := nvals - off
		if chunk > 4096 {
			chunk = 4096
		}
		if err := rd.read(raw[:8*chunk]); err != nil {
			return nil, err
		}
		for i := 0; i < chunk; i++ {
			s.Points = append(s.Points, math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])))
		}
		off += chunk
	}
	numPages, err := rd.uint(8)
	if err != nil {
		return nil, err
	}
	if numPages < 1 || numPages > maxPages {
		return nil, fmt.Errorf("%w: page count %d", ErrCorrupt, numPages)
	}
	s.Pages = make([]Page, 0, minInt(int(numPages), 1<<16))
	for i := uint64(0); i < numPages; i++ {
		id, err := rd.uint(8)
		if err != nil {
			return nil, err
		}
		plen, err := rd.uint(4)
		if err != nil {
			return nil, err
		}
		if plen > uint64(s.PageSize) {
			return nil, fmt.Errorf("%w: page %d holds %d bytes, page size %d", ErrCorrupt, id, plen, s.PageSize)
		}
		data := make([]byte, plen)
		if err := rd.read(data); err != nil {
			return nil, err
		}
		s.Pages = append(s.Pages, Page{ID: int64(id), Data: data})
	}
	want := rd.sum.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(rd.r, trailer[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != want {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// minInt caps decoder preallocations so header-declared sizes are never
// trusted before the corresponding bytes have been read.
func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
