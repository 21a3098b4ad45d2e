package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Format version 2: a flat structure-of-arrays layout designed to BE the
// runtime format. A v2 file can be memory-mapped read-only and served
// directly — the points are one contiguous row-major array at an 8-aligned
// offset (castable to []float64 without copying), and the R*-tree pages are
// addressed through a fixed-stride directory of byte offsets — so cold
// start costs header+directory validation instead of a full decode, and N
// processes serving the same snapshot share one physical copy through the
// OS page cache.
//
// Layout (all integers little-endian; offsets are absolute file offsets):
//
//	off   0  magic           8 bytes  "MXRQSNAP"
//	off   8  version         uint32   2
//	off  12  flags           uint32   bit 0 = FlagFloat32, others must be 0
//	off  16  dim             uint32   record dimensionality
//	off  20  pageSize        uint32   pager page size in bytes
//	off  24  count           uint64   record count
//	off  32  quadMaxPartial  uint32   quad-tree leaf split threshold
//	off  36  quadMaxDepth    uint32   quad-tree depth cap
//	off  40  root            int64    R*-tree root page ID
//	off  48  height          uint32   R*-tree height (1 = root is a leaf)
//	off  52  numPages        uint32   R*-tree page count
//	off  56  pointsOff       uint64   points section offset (8-aligned)
//	off  64  pointsLen       uint64   count*dim*(4|8) bytes
//	off  72  dirOff          uint64   page directory offset (8-aligned)
//	off  80  dirLen          uint64   numPages*20 bytes
//	off  88  pagesOff        uint64   page payload offset (8-aligned)
//	off  96  pagesLen        uint64   total page payload bytes
//	off 104  pointsCRC       uint32   CRC-32C of the points section
//	off 108  fpLen           uint32   fingerprint length
//	off 112  fingerprint     fpLen bytes (hex digest)
//	         headerCRC       uint32   CRC-32C of bytes [0, 112+fpLen)
//	         zero padding to pointsOff
//	         points          count*dim float64 (or float32 with FlagFloat32),
//	                         row-major
//	         zero padding to dirOff
//	         directory       numPages × { id int64, off uint64, len uint32 },
//	                         off relative to pagesOff, entries tightly packed
//	                         in ascending-ID order (off cumulative)
//	         dirCRC          uint32   CRC-32C of the directory bytes
//	         zero padding to pagesOff
//	         pages           concatenated page payloads in directory order
//	         fileCRC         uint32   CRC-32C of every preceding byte
//
// The layout is canonical: every offset is derived from the lengths, the
// padding is zero, and the directory offsets are exactly cumulative.
// Decoders recompute the canonical offsets and reject any deviation, so a
// given Snapshot value has exactly one valid v2 byte representation — the
// determinism guarantee v1 provides, preserved under random access.
//
// Validation contract: Open verifies bounds plus the header, directory and
// points CRCs — O(header+directory+points), never O(pages) — which is what
// makes a mapped cold start cheap; the page payloads are covered only by
// fileCRC, which View.VerifyFile checks (every heap load, and DecodeV2 and
// hence Read, call it).
// All failures are the typed ErrInvalid family; crafted input never panics
// and out-of-range offsets are rejected before any access.

// FlagFloat32 marks a v2 snapshot whose points are stored as float32. The
// values materialize to float64 exactly (every float32 is representable),
// so serving is bit-exact with respect to the stored coordinates. Nothing
// in this repository produces such a file any more (the lossy write-time
// quantisation is gone); the flag is input handling for files that exist.
const FlagFloat32 = 1 << 0

const (
	v2HeaderLen   = 112 // fixed header bytes before the fingerprint
	v2DirEntryLen = 20  // id int64 + off uint64 + len uint32
)

// align8 rounds n up to the next multiple of 8 (section alignment: the
// points array must be castable to []float64 in place).
func align8(n int64) int64 { return (n + 7) &^ 7 }

// v2Layout holds the derived section geometry of a v2 image.
type v2Layout struct {
	fpLen     int64
	pointsOff int64
	pointsLen int64
	dirOff    int64
	dirLen    int64
	pagesOff  int64
	pagesLen  int64
	total     int64
}

// v2LayoutFor computes the canonical layout for the given shape.
func v2LayoutFor(fpLen, nvals, valSize, numPages, pagesLen int64) v2Layout {
	l := v2Layout{fpLen: fpLen, pointsLen: nvals * valSize, pagesLen: pagesLen}
	l.pointsOff = align8(v2HeaderLen + fpLen + 4)
	l.dirOff = align8(l.pointsOff + l.pointsLen)
	l.dirLen = numPages * v2DirEntryLen
	l.pagesOff = align8(l.dirOff + l.dirLen + 4)
	l.total = l.pagesOff + l.pagesLen + 4
	return l
}

// EncodeV2 returns the v2 encoding of the snapshot, the bytes WriteV2
// streams. Identical snapshots produce byte-identical images.
func EncodeV2(s *Snapshot) ([]byte, error) {
	var b bytes.Buffer
	err := WriteV2(&b, s) // writes nothing when it fails
	return b.Bytes(), err
}

// WriteV2 streams the snapshot to w in format v2; see WriteV2Runs.
func WriteV2(w io.Writer, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("snapshot: nil snapshot")
	}
	return WriteV2Runs(w, s, [][]float64{s.Points}, nil)
}

// WriteV2Runs streams the v2 encoding of s to w without building the file
// in memory. The points are runs, concatenated row-major, in place of
// s.Points, which is ignored. A non-nil rewrite supplies each page's
// bytes: given the page and one page-sized scratch buffer cut to the
// page's length, it returns the page's own bytes or the scratch rewritten.
// Every check on s and the points runs before the first byte is written;
// an error from rewrite or w leaves w holding a prefix. A float64 run's
// bytes are its memory (the format is little-endian, as is every host that
// maps it): one pass computes the points CRC the header holds, a second
// writes them, through one 64 KiB buffer that also feeds the file CRC.
func WriteV2Runs(w io.Writer, s *Snapshot, runs [][]float64, rewrite func(p Page, scratch []byte) ([]byte, error)) error {
	nvals, pointsCRC := 0, uint32(0)
	for _, run := range runs {
		for i, v := range run {
			if s.Float32 && float64(float32(v)) != v { // NaN included
				return fmt.Errorf("snapshot: point value %d (%v) is not exactly representable as float32", nvals+i, v)
			}
		}
		nvals += len(run)
		pointsCRC = crc32.Update(pointsCRC, castagnoli, runBytes(run, s.Float32))
	}
	if err := s.validate(nvals); err != nil {
		return err
	}
	valSize, flags := int64(8), uint32(0)
	if s.Float32 {
		valSize, flags = 4, FlagFloat32
	}
	var pagesLen int64
	for _, p := range s.Pages {
		pagesLen += int64(len(p.Data))
	}
	l := v2LayoutFor(int64(len(s.Fingerprint)), int64(nvals), valSize, int64(len(s.Pages)), pagesLen)
	hdr := make([]byte, l.pointsOff) // header, fingerprint, header CRC, padding
	le := binary.LittleEndian
	copy(hdr[0:8], Magic)
	le.PutUint32(hdr[8:], Version2)
	le.PutUint32(hdr[12:], flags)
	le.PutUint32(hdr[16:], uint32(s.Dim))
	le.PutUint32(hdr[20:], uint32(s.PageSize))
	le.PutUint64(hdr[24:], uint64(s.Count))
	le.PutUint32(hdr[32:], uint32(s.QuadMaxPartial))
	le.PutUint32(hdr[36:], uint32(s.QuadMaxDepth))
	le.PutUint64(hdr[40:], uint64(s.Root))
	le.PutUint32(hdr[48:], uint32(s.Height))
	le.PutUint32(hdr[52:], uint32(len(s.Pages)))
	le.PutUint64(hdr[56:], uint64(l.pointsOff))
	le.PutUint64(hdr[64:], uint64(l.pointsLen))
	le.PutUint64(hdr[72:], uint64(l.dirOff))
	le.PutUint64(hdr[80:], uint64(l.dirLen))
	le.PutUint64(hdr[88:], uint64(l.pagesOff))
	le.PutUint64(hdr[96:], uint64(l.pagesLen))
	le.PutUint32(hdr[104:], pointsCRC)
	le.PutUint32(hdr[108:], uint32(len(s.Fingerprint)))
	copy(hdr[v2HeaderLen:], s.Fingerprint)
	hdrEnd := v2HeaderLen + int64(len(s.Fingerprint))
	le.PutUint32(hdr[hdrEnd:], crc32.Checksum(hdr[:hdrEnd], castagnoli))
	if b, ok := w.(*bytes.Buffer); ok { // EncodeV2: one allocation
		b.Grow(int(l.total))
	}
	// bufio's error is sticky: Flush reports the first failed write.
	file := crc32.New(castagnoli)
	bw := bufio.NewWriterSize(io.MultiWriter(w, file), 64<<10)
	bw.Write(hdr)
	for _, run := range runs {
		bw.Write(runBytes(run, s.Float32))
	}
	var zeros, e [v2DirEntryLen]byte
	bw.Write(zeros[:l.dirOff-l.pointsOff-l.pointsLen])
	dirCRC, off := uint32(0), uint64(0)
	for _, p := range s.Pages {
		entry := le.AppendUint32(le.AppendUint64(le.AppendUint64(e[:0], uint64(p.ID)), off), uint32(len(p.Data)))
		dirCRC = crc32.Update(dirCRC, castagnoli, entry)
		bw.Write(entry)
		off += uint64(len(p.Data))
	}
	bw.Write(le.AppendUint32(e[:0], dirCRC))
	bw.Write(zeros[:l.pagesOff-l.dirOff-l.dirLen-4])
	scratch := make([]byte, s.PageSize)
	for _, p := range s.Pages {
		data := p.Data
		if rewrite != nil {
			var err error
			if data, err = rewrite(p, scratch[:len(p.Data)]); err != nil {
				return err
			}
			if len(data) != len(p.Data) {
				return fmt.Errorf("snapshot: page %d rewritten to %d bytes from %d", p.ID, len(data), len(p.Data))
			}
		}
		bw.Write(data)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(le.AppendUint32(e[:0], file.Sum32()))
	return err
}

// runBytes returns a run's stored bytes: its own memory as float64, a new
// float32 encoding otherwise.
func runBytes(run []float64, f32 bool) []byte {
	if !f32 {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(run))), 8*len(run))
	}
	b := make([]byte, 0, 4*len(run))
	for _, v := range run {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
	}
	return b
}

// View is a validated, zero-copy window over a v2 image (typically a
// read-only memory mapping). Page and Points return slices aliasing the
// underlying bytes; callers must treat them as immutable and must not use
// the View after the mapping is unmapped.
type View struct {
	data []byte

	// Dataset shape and configuration, decoded from the header.
	Dim            int
	Count          int
	PageSize       int
	QuadMaxPartial int
	QuadMaxDepth   int
	Root           int64
	Height         int
	Fingerprint    string
	Float32        bool

	numPages int
	l        v2Layout
}

// Open validates a v2 image for direct serving: magic, version, every
// header field range, the canonical section geometry (each offset is
// recomputed and compared, so no crafted offset can point outside the
// image), the header and directory CRCs, the directory invariants
// (ascending positive IDs, cumulative offsets, page lengths within the
// page size, root present) and the points CRC. Page payloads are NOT
// checksummed here — that is VerifyFile's job — so Open is O(header +
// directory + points), which is what makes mmap cold start cheap.
//
// All failures are typed (ErrBadMagic, ErrVersion, ErrTruncated,
// ErrChecksum, ErrCorrupt — all wrapping ErrInvalid); crafted input never
// panics or reads out of bounds.
func Open(data []byte) (*View, error) {
	le := binary.LittleEndian
	if len(data) < 12 {
		return nil, ErrTruncated
	}
	if string(data[:8]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, data[:8])
	}
	version := le.Uint32(data[8:])
	if version == 0 || version > Version {
		return nil, fmt.Errorf("%w: %d (this build reads up to %d)", ErrVersion, version, Version)
	}
	if version != Version2 {
		return nil, fmt.Errorf("%w: %d (direct serving requires format 2; use Read)", ErrVersion, version)
	}
	if len(data) < v2HeaderLen {
		return nil, ErrTruncated
	}
	flags := le.Uint32(data[12:])
	if flags&^uint32(FlagFloat32) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	v := &View{
		data:           data,
		Dim:            int(le.Uint32(data[16:])),
		PageSize:       int(le.Uint32(data[20:])),
		QuadMaxPartial: int(le.Uint32(data[32:])),
		QuadMaxDepth:   int(le.Uint32(data[36:])),
		Root:           int64(le.Uint64(data[40:])),
		Height:         int(le.Uint32(data[48:])),
		numPages:       int(le.Uint32(data[52:])),
		Float32:        flags&FlagFloat32 != 0,
	}
	count := le.Uint64(data[24:])
	if count > maxCount {
		return nil, fmt.Errorf("%w: record count %d", ErrCorrupt, count)
	}
	v.Count = int(count)
	switch {
	case v.Dim < 2 || v.Dim > maxDim:
		return nil, fmt.Errorf("%w: dimensionality %d", ErrCorrupt, v.Dim)
	case v.Count < 1:
		return nil, fmt.Errorf("%w: record count %d", ErrCorrupt, v.Count)
	case v.PageSize < 64 || v.PageSize > maxPageSize:
		return nil, fmt.Errorf("%w: page size %d", ErrCorrupt, v.PageSize)
	case v.QuadMaxPartial > MaxQuadParam || v.QuadMaxDepth > MaxQuadParam:
		return nil, fmt.Errorf("%w: quad-tree parameters (%d, %d)", ErrCorrupt, v.QuadMaxPartial, v.QuadMaxDepth)
	case v.Root <= 0:
		return nil, fmt.Errorf("%w: root page %d", ErrCorrupt, v.Root)
	case v.Height < 1:
		return nil, fmt.Errorf("%w: height %d", ErrCorrupt, v.Height)
	case v.numPages < 1 || v.numPages > maxPages:
		return nil, fmt.Errorf("%w: page count %d", ErrCorrupt, v.numPages)
	}
	fpLen := le.Uint32(data[108:])
	if fpLen > maxFpLen {
		return nil, fmt.Errorf("%w: fingerprint length %d", ErrCorrupt, fpLen)
	}
	hdrEnd := v2HeaderLen + int64(fpLen)
	if int64(len(data)) < hdrEnd+4 {
		return nil, ErrTruncated
	}
	if got, want := le.Uint32(data[hdrEnd:]), crc32.Checksum(data[:hdrEnd], castagnoli); got != want {
		return nil, fmt.Errorf("%w: header stored %08x, computed %08x", ErrChecksum, got, want)
	}
	v.Fingerprint = string(data[v2HeaderLen:hdrEnd])
	// The header is now trusted. Recompute the canonical geometry and
	// require the stored offsets to match exactly: offsets are derived
	// values, so any deviation is corruption, and matching them up front
	// means no later access can leave the image.
	valSize := int64(8)
	if v.Float32 {
		valSize = 4
	}
	v.l = v2LayoutFor(int64(fpLen), int64(v.Count)*int64(v.Dim), valSize, int64(v.numPages), int64(le.Uint64(data[96:])))
	stored := v2Layout{
		fpLen:     int64(fpLen),
		pointsOff: int64(le.Uint64(data[56:])),
		pointsLen: int64(le.Uint64(data[64:])),
		dirOff:    int64(le.Uint64(data[72:])),
		dirLen:    int64(le.Uint64(data[80:])),
		pagesOff:  int64(le.Uint64(data[88:])),
		pagesLen:  int64(le.Uint64(data[96:])),
		total:     v.l.total,
	}
	if stored != v.l {
		return nil, fmt.Errorf("%w: section offsets deviate from canonical layout", ErrCorrupt)
	}
	if int64(len(data)) < v.l.total {
		return nil, ErrTruncated
	}
	if int64(len(data)) > v.l.total {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, int64(len(data))-v.l.total)
	}
	for _, pad := range [][2]int64{
		{hdrEnd + 4, v.l.pointsOff},
		{v.l.pointsOff + v.l.pointsLen, v.l.dirOff},
		{v.l.dirOff + v.l.dirLen + 4, v.l.pagesOff},
	} {
		for _, b := range data[pad[0]:pad[1]] {
			if b != 0 {
				return nil, fmt.Errorf("%w: nonzero padding", ErrCorrupt)
			}
		}
	}
	dir := data[v.l.dirOff : v.l.dirOff+v.l.dirLen]
	if got, want := le.Uint32(data[v.l.dirOff+v.l.dirLen:]), crc32.Checksum(dir, castagnoli); got != want {
		return nil, fmt.Errorf("%w: directory stored %08x, computed %08x", ErrChecksum, got, want)
	}
	var prevID int64
	var off uint64
	rootSeen := false
	for i := 0; i < v.numPages; i++ {
		e := dir[i*v2DirEntryLen:]
		id := int64(le.Uint64(e))
		plen := le.Uint32(e[16:])
		switch {
		case id <= 0:
			return nil, fmt.Errorf("%w: page %d has id %d", ErrCorrupt, i, id)
		case id <= prevID:
			return nil, fmt.Errorf("%w: page ids not strictly ascending (%d after %d)", ErrCorrupt, id, prevID)
		case int(plen) > v.PageSize:
			return nil, fmt.Errorf("%w: page %d holds %d bytes, page size %d", ErrCorrupt, id, plen, v.PageSize)
		case le.Uint64(e[8:]) != off:
			return nil, fmt.Errorf("%w: page %d offset %d, want cumulative %d", ErrCorrupt, id, le.Uint64(e[8:]), off)
		}
		prevID = id
		off += uint64(plen)
		if id == v.Root {
			rootSeen = true
		}
	}
	if off != uint64(v.l.pagesLen) {
		return nil, fmt.Errorf("%w: directory covers %d payload bytes, section holds %d", ErrCorrupt, off, v.l.pagesLen)
	}
	if !rootSeen {
		return nil, fmt.Errorf("%w: root page %d not in directory", ErrCorrupt, v.Root)
	}
	points := data[v.l.pointsOff : v.l.pointsOff+v.l.pointsLen]
	if got, want := le.Uint32(data[104:]), crc32.Checksum(points, castagnoli); got != want {
		return nil, fmt.Errorf("%w: points stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if v.Float32 {
		// NaN float32s may not survive the f32→f64→f32 round-trip with
		// their payload intact, which would break canonical re-encoding;
		// they are meaningless as coordinates anyway, so reject them at
		// the format level.
		for i := 0; i < len(points); i += 4 {
			bits := le.Uint32(points[i:])
			if bits&0x7f800000 == 0x7f800000 && bits&0x007fffff != 0 {
				return nil, fmt.Errorf("%w: NaN point value", ErrCorrupt)
			}
		}
	}
	return v, nil
}

// NumPages returns the number of R*-tree pages in the directory.
func (v *View) NumPages() int { return v.numPages }

// Page returns the i-th directory entry: the page ID and its payload,
// aliasing the underlying image (do not modify).
func (v *View) Page(i int) (id int64, data []byte) {
	e := v.data[v.l.dirOff+int64(i)*v2DirEntryLen:]
	id = int64(binary.LittleEndian.Uint64(e))
	off := binary.LittleEndian.Uint64(e[8:])
	plen := binary.LittleEndian.Uint32(e[16:])
	start := v.l.pagesOff + int64(off)
	return id, v.data[start : start+int64(plen) : start+int64(plen)]
}

// Points returns the record coordinates, row-major (Count × Dim). For
// float64 images whose points section is 8-aligned in memory — always the
// case for a file mapping, since pointsOff is 8-aligned and mappings are
// page-aligned — the returned slice aliases the image with no copy; for
// float32 images (or unaligned buffers) it is materialized, each float32
// converting to float64 exactly.
func (v *View) Points() []float64 {
	n := v.Count * v.Dim
	raw := v.data[v.l.pointsOff : v.l.pointsOff+v.l.pointsLen]
	if !v.Float32 && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]float64, n)
	if v.Float32 {
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
		}
	} else {
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	return out
}

// PointsZeroCopy reports whether Points aliases the image rather than
// copying (float64 images with an 8-aligned points section).
func (v *View) PointsZeroCopy() bool {
	raw := v.data[v.l.pointsOff:]
	return !v.Float32 && uintptr(unsafe.Pointer(&raw[0]))%8 == 0
}

// Size returns the total image size in bytes.
func (v *View) Size() int64 { return int64(len(v.data)) }

// VerifyFile checks the trailing whole-file CRC — the one check Open
// skips, and the only one covering the page payloads.
func (v *View) VerifyFile() error {
	body := v.data[:v.l.total-4]
	if got, want := binary.LittleEndian.Uint32(v.data[v.l.total-4:]), crc32.Checksum(body, castagnoli); got != want {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	return nil
}

// DecodeV2 fully decodes a v2 image into an owned Snapshot, verifying the
// whole-file CRC as well. It is the v2 arm of Read and the integrity check
// behind inspect-snapshot.
func DecodeV2(data []byte) (*Snapshot, error) {
	v, err := Open(data)
	if err != nil {
		return nil, err
	}
	if err := v.VerifyFile(); err != nil {
		return nil, err
	}
	s := &Snapshot{
		FormatVersion:  Version2,
		Float32:        v.Float32,
		Fingerprint:    v.Fingerprint,
		Dim:            v.Dim,
		Count:          v.Count,
		PageSize:       v.PageSize,
		QuadMaxPartial: v.QuadMaxPartial,
		QuadMaxDepth:   v.QuadMaxDepth,
		Root:           v.Root,
		Height:         v.Height,
		Points:         make([]float64, v.Count*v.Dim),
		Pages:          make([]Page, v.numPages),
	}
	copy(s.Points, v.Points())
	for i := range s.Pages {
		id, pd := v.Page(i)
		s.Pages[i] = Page{ID: id, Data: append([]byte(nil), pd...)}
	}
	if err := s.validate(len(s.Points)); err != nil {
		return nil, err
	}
	return s, nil
}

// readV2 handles the v2 arm of Read: the remaining stream is drained and
// decoded as one image (v2 is an offset-addressed format, so it is defined
// over a byte image rather than a sequential stream).
func readV2(r io.Reader) (*Snapshot, error) {
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	data := make([]byte, 0, 12+len(rest))
	data = append(data, Magic...)
	data = binary.LittleEndian.AppendUint32(data, Version2)
	data = append(data, rest...)
	return DecodeV2(data)
}
