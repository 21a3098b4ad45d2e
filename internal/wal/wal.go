// Package wal implements the per-dataset mutation write-ahead log of the
// MaxRank serving stack: an append-only, CRC-framed record log that makes
// acknowledged dataset mutations survive kill -9 and power loss. Each
// record carries one atomic mutation batch plus the content fingerprints
// of the dataset version it applies to (base) and produces (new), so a
// log can only ever replay against its own base snapshot, replay is
// verifiable record by record, and a snapshot written mid-stream
// supersedes a prefix of the log unambiguously.
//
// File layout (all integers little-endian):
//
//	magic    8 bytes  "MXWALv01"
//	records  zero or more of:
//	  payloadLen uint32   payload byte length
//	  crc        uint32   CRC-32C (Castagnoli) of the payload
//	  payload:
//	    baseVersion uint64   serving version the batch applied to (informational)
//	    baseFPLen   uint16   then baseFPLen bytes: base dataset fingerprint
//	    newFPLen    uint16   then newFPLen bytes: successor dataset fingerprint
//	    numOps      uint32   then numOps ops:
//	      kind uint8         1 = insert, 2 = delete
//	      insert: dim uint16, dim × float64 coordinates
//	      delete: index uint64
//
// A crash can tear the tail of the last record (or the header of a fresh
// file); Scan finds the longest valid prefix and reports the tear as a
// typed *TailError, and Open truncates the file back to that prefix so
// appends resume cleanly. Records chain by fingerprint — each record's
// base must be the previous record's new — which Append enforces, so a
// scanned log is always a linear history.
//
// Durability is a policy (SyncAlways / SyncInterval / SyncNone): with
// SyncAlways an Append returns only after fsync, so an acknowledged
// mutation survives anything short of media failure; the weaker policies
// trade a bounded window of acknowledged-but-unsynced records for append
// throughput. See docs/OPERATIONS.md ("Durability").
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/vfs"
)

// Magic identifies a MaxRank write-ahead log file (version in the tag).
const Magic = "MXWALv01"

// Typed failure modes. Every decode failure wraps ErrInvalid; callers
// branch with errors.Is and corrupt input never panics.
var (
	// ErrInvalid is the umbrella error for anything wrong with a log's
	// bytes or structure.
	ErrInvalid = errors.New("invalid wal")
	// ErrBadMagic marks a file that is not a write-ahead log at all (a
	// complete header is present but wrong — distinct from a torn header,
	// which is recoverable).
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrInvalid)
	// ErrTorn marks a torn or corrupt record at the tail: the bytes up to
	// it are a valid log, the rest must be discarded.
	ErrTorn = fmt.Errorf("%w: torn or corrupt record", ErrInvalid)
	// ErrChain marks records whose fingerprints do not chain — the log is
	// not a linear history and cannot be replayed.
	ErrChain = fmt.Errorf("%w: record chain broken", ErrInvalid)
	// ErrBaseMismatch marks a log that does not apply to the snapshot it
	// was opened against: no chain state matches the snapshot fingerprint.
	ErrBaseMismatch = errors.New("wal: log does not apply to this base snapshot")
	// ErrClosed marks operations on a closed log.
	ErrClosed = errors.New("wal: closed")
	// ErrBroken marks a log whose backing file is in an unknown state
	// after a failed write could not be rolled back, or after a failed
	// fsync (the kernel may have dropped dirty pages; nothing appended
	// afterwards could be trusted to be durable).
	ErrBroken = errors.New("wal: log broken by an earlier I/O failure")
)

// Decode limits: far above anything the system produces, low enough that
// a corrupt length field fails as torn instead of exhausting memory.
const (
	maxPayload = 1 << 26
	maxOps     = 1 << 20
	maxDim     = 1 << 10
	maxFPLen   = 1 << 10

	headerLen = len(Magic)
	frameLen  = 8 // payloadLen + crc
)

// OpKind distinguishes the point mutations of a record's batch.
type OpKind uint8

const (
	// OpInsert adds the record in Op.Point.
	OpInsert OpKind = 1
	// OpDelete removes the record at Op.Index.
	OpDelete OpKind = 2
)

// Op is one point mutation, mirroring the engine's mutation op without
// importing it: the WAL stores the batch verbatim and the serving layer
// converts.
type Op struct {
	Kind  OpKind
	Point []float64 // OpInsert: the record to add
	Index int64     // OpDelete: the pre-batch index to remove
}

// Record is one logged mutation batch.
type Record struct {
	// BaseVersion is the serving-layer version counter the batch applied
	// to. Informational: replay keys on fingerprints, not versions
	// (version counters restart every process lifetime).
	BaseVersion uint64
	// BaseFingerprint is the content fingerprint of the dataset version
	// the batch applies to; a record only ever replays onto that state.
	BaseFingerprint string
	// NewFingerprint is the content fingerprint the batch produces;
	// replay verifies it, so a divergent replay fails instead of serving
	// wrong answers.
	NewFingerprint string
	// Ops is the atomic mutation batch.
	Ops []Op
}

// validate checks the structural bounds shared by encode and decode.
func (r *Record) validate() error {
	if len(r.BaseFingerprint) > maxFPLen || len(r.NewFingerprint) > maxFPLen {
		return fmt.Errorf("%w: fingerprint length %d/%d", ErrInvalid, len(r.BaseFingerprint), len(r.NewFingerprint))
	}
	if len(r.Ops) == 0 || len(r.Ops) > maxOps {
		return fmt.Errorf("%w: %d ops", ErrInvalid, len(r.Ops))
	}
	for i := range r.Ops {
		op := &r.Ops[i]
		switch op.Kind {
		case OpInsert:
			if len(op.Point) == 0 || len(op.Point) > maxDim {
				return fmt.Errorf("%w: op %d inserts %d coordinates", ErrInvalid, i, len(op.Point))
			}
		case OpDelete:
			if op.Index < 0 {
				return fmt.Errorf("%w: op %d deletes negative index %d", ErrInvalid, i, op.Index)
			}
		default:
			return fmt.Errorf("%w: op %d has unknown kind %d", ErrInvalid, i, op.Kind)
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendUint appends v little-endian in width bytes.
func appendUint(b []byte, v uint64, width int) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(b, buf[:width]...)
}

// encodePayload appends the record payload (no frame) to b.
func encodePayload(b []byte, r *Record) []byte {
	b = appendUint(b, r.BaseVersion, 8)
	b = appendUint(b, uint64(len(r.BaseFingerprint)), 2)
	b = append(b, r.BaseFingerprint...)
	b = appendUint(b, uint64(len(r.NewFingerprint)), 2)
	b = append(b, r.NewFingerprint...)
	b = appendUint(b, uint64(len(r.Ops)), 4)
	for i := range r.Ops {
		op := &r.Ops[i]
		b = append(b, byte(op.Kind))
		switch op.Kind {
		case OpInsert:
			b = appendUint(b, uint64(len(op.Point)), 2)
			for _, v := range op.Point {
				b = appendUint(b, math.Float64bits(v), 8)
			}
		case OpDelete:
			b = appendUint(b, uint64(op.Index), 8)
		}
	}
	return b
}

// EncodeRecord frames one record (length + CRC + payload). It fails only
// on records violating the structural bounds.
func EncodeRecord(r *Record) ([]byte, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	payload := encodePayload(make([]byte, 0, 64), r)
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("%w: record payload %d bytes exceeds %d", ErrInvalid, len(payload), maxPayload)
	}
	frame := make([]byte, 0, frameLen+len(payload))
	frame = appendUint(frame, uint64(len(payload)), 4)
	frame = appendUint(frame, uint64(crc32.Checksum(payload, castagnoli)), 4)
	return append(frame, payload...), nil
}

// payloadReader decodes payload fields with bounds checks.
type payloadReader struct {
	b   []byte
	off int
}

func (p *payloadReader) uint(width int) (uint64, error) {
	if p.off+width > len(p.b) {
		return 0, fmt.Errorf("%w: payload field past end", ErrTorn)
	}
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(p.b[p.off+i])
	}
	p.off += width
	return v, nil
}

func (p *payloadReader) bytes(n int) ([]byte, error) {
	if p.off+n > len(p.b) {
		return nil, fmt.Errorf("%w: payload field past end", ErrTorn)
	}
	b := p.b[p.off : p.off+n]
	p.off += n
	return b, nil
}

// decodePayload decodes one CRC-verified payload into a Record.
func decodePayload(b []byte) (*Record, error) {
	p := &payloadReader{b: b}
	rec := &Record{}
	v, err := p.uint(8)
	if err != nil {
		return nil, err
	}
	rec.BaseVersion = v
	fpLen, err := p.uint(2)
	if err != nil {
		return nil, err
	}
	if fpLen > maxFPLen {
		return nil, fmt.Errorf("%w: base fingerprint length %d", ErrTorn, fpLen)
	}
	fp, err := p.bytes(int(fpLen))
	if err != nil {
		return nil, err
	}
	rec.BaseFingerprint = string(fp)
	fpLen, err = p.uint(2)
	if err != nil {
		return nil, err
	}
	if fpLen > maxFPLen {
		return nil, fmt.Errorf("%w: new fingerprint length %d", ErrTorn, fpLen)
	}
	fp, err = p.bytes(int(fpLen))
	if err != nil {
		return nil, err
	}
	rec.NewFingerprint = string(fp)
	numOps, err := p.uint(4)
	if err != nil {
		return nil, err
	}
	if numOps == 0 || numOps > maxOps {
		return nil, fmt.Errorf("%w: %d ops", ErrTorn, numOps)
	}
	rec.Ops = make([]Op, 0, min(int(numOps), 4096))
	for i := uint64(0); i < numOps; i++ {
		kind, err := p.uint(1)
		if err != nil {
			return nil, err
		}
		op := Op{Kind: OpKind(kind)}
		switch op.Kind {
		case OpInsert:
			dim, err := p.uint(2)
			if err != nil {
				return nil, err
			}
			if dim == 0 || dim > maxDim {
				return nil, fmt.Errorf("%w: op %d inserts %d coordinates", ErrTorn, i, dim)
			}
			op.Point = make([]float64, dim)
			for j := range op.Point {
				bits, err := p.uint(8)
				if err != nil {
					return nil, err
				}
				op.Point[j] = math.Float64frombits(bits)
			}
		case OpDelete:
			idx, err := p.uint(8)
			if err != nil {
				return nil, err
			}
			if idx > math.MaxInt64 {
				return nil, fmt.Errorf("%w: op %d deletes index %d", ErrTorn, i, idx)
			}
			op.Index = int64(idx)
		default:
			return nil, fmt.Errorf("%w: op %d has unknown kind %d", ErrTorn, i, kind)
		}
		rec.Ops = append(rec.Ops, op)
	}
	if p.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrTorn, len(b)-p.off)
	}
	return rec, nil
}

// TailError reports bytes after the valid prefix of a log that had to be
// discarded: a record torn by a crash, or tail corruption — the two are
// indistinguishable from the bytes alone.
type TailError struct {
	// Offset is the byte offset of the first invalid record (the length
	// of the valid prefix).
	Offset int64
	// Discarded is how many bytes follow the valid prefix.
	Discarded int64
	// Reason describes what was wrong with the first invalid record.
	Reason error
}

func (e *TailError) Error() string {
	return fmt.Sprintf("wal: invalid tail at offset %d (%d bytes discarded): %v", e.Offset, e.Discarded, e.Reason)
}

// Unwrap exposes the reason, so errors.Is(err, ErrTorn) (and ErrInvalid)
// match.
func (e *TailError) Unwrap() error { return e.Reason }

// Scan decodes records from r. It returns the records of the longest
// valid prefix, the byte length of that prefix (including the header),
// and the scan outcome:
//
//   - nil: the stream is a clean, complete log.
//   - *TailError (wrapping ErrTorn, hence ErrInvalid): trailing bytes
//     after the valid prefix are torn or corrupt; the returned records
//     are still usable, and an appender should truncate to the offset.
//   - ErrBadMagic: the stream is a complete header that is not a WAL —
//     nothing is usable, and nothing should be truncated.
//
// A stream shorter than the header (including an empty one) is a torn
// header: valid prefix of zero records at offset 0. Scan never panics on
// any input.
func Scan(r io.Reader) ([]Record, int64, error) {
	recs, _, valid, err := scanRecords(r)
	return recs, valid, err
}

// scanRecords is Scan plus the end offset of every record, which Open
// uses for its bookkeeping. valid is the byte length of the usable
// prefix: 0 before a complete header, headerLen once the magic is read,
// then the end offset of the last good record.
func scanRecords(r io.Reader) (recs []Record, ends []int64, valid int64, err error) {
	br := bufio.NewReader(r)
	header := make([]byte, headerLen)
	n, err := io.ReadFull(br, header)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Short header: a fresh or header-torn file. Zero records;
			// the valid prefix is empty (the appender rewrites the header).
			if n == 0 {
				return nil, nil, 0, nil
			}
			if string(header[:n]) == Magic[:n] {
				return nil, nil, 0, &TailError{Offset: 0, Discarded: int64(n), Reason: fmt.Errorf("%w: short header", ErrTorn)}
			}
			return nil, nil, 0, fmt.Errorf("%w: got %q", ErrBadMagic, header[:n])
		}
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if string(header) != Magic {
		return nil, nil, 0, fmt.Errorf("%w: got %q", ErrBadMagic, header)
	}

	off := int64(headerLen)
	frame := make([]byte, frameLen)
	var payload []byte
	// discarded tallies EVERYTHING after the valid prefix once a record is
	// found invalid: the bad record's consumed bytes plus whatever follows
	// it (corruption mid-log invalidates the entire rest — nothing after a
	// bad record can be trusted to be framed correctly).
	discarded := func(consumed int) int64 {
		rest, _ := io.Copy(io.Discard, br)
		return int64(consumed) + rest
	}
	for {
		n, err := io.ReadFull(br, frame)
		if err != nil {
			if errors.Is(err, io.EOF) && n == 0 {
				return recs, ends, off, nil // clean end
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, ends, off, &TailError{Offset: off, Discarded: int64(n), Reason: fmt.Errorf("%w: short frame", ErrTorn)}
			}
			return recs, ends, off, &TailError{Offset: off, Discarded: discarded(n), Reason: fmt.Errorf("%w: %v", ErrInvalid, err)}
		}
		payloadLen := binary.LittleEndian.Uint32(frame[0:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:8])
		if payloadLen == 0 || payloadLen > maxPayload {
			return recs, ends, off, &TailError{Offset: off, Discarded: discarded(n), Reason: fmt.Errorf("%w: payload length %d", ErrTorn, payloadLen)}
		}
		if int(payloadLen) > cap(payload) {
			payload = make([]byte, min(int(payloadLen), 1<<16))
			for cap(payload) < int(payloadLen) {
				payload = append(payload[:cap(payload)], 0)
			}
		}
		payload = payload[:payloadLen]
		pn, err := io.ReadFull(br, payload)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return recs, ends, off, &TailError{Offset: off, Discarded: int64(n + pn), Reason: fmt.Errorf("%w: short payload", ErrTorn)}
			}
			return recs, ends, off, &TailError{Offset: off, Discarded: discarded(n + pn), Reason: fmt.Errorf("%w: %v", ErrInvalid, err)}
		}
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return recs, ends, off, &TailError{Offset: off, Discarded: discarded(n + pn), Reason: fmt.Errorf("%w: crc stored %08x computed %08x", ErrTorn, wantCRC, got)}
		}
		rec, err := decodePayload(payload)
		if err != nil {
			// CRC-valid but structurally impossible: corruption all the
			// same; the prefix before it stays usable.
			return recs, ends, off, &TailError{Offset: off, Discarded: discarded(n + pn), Reason: err}
		}
		recs = append(recs, *rec)
		off += int64(frameLen) + int64(payloadLen)
		ends = append(ends, off)
	}
}

// Plan returns the suffix of records to apply on top of a base snapshot
// with fingerprint baseFP. Records through the last one whose
// NewFingerprint equals baseFP are already part of the snapshot — the
// snapshot-then-truncate crash window leaves exactly such a superseded
// prefix — and are skipped. It fails with ErrChain when the records do
// not form a linear fingerprint chain, and with ErrBaseMismatch when no
// chain state matches baseFP (the log belongs to a different lineage).
func Plan(records []Record, baseFP string) ([]Record, error) {
	for i := 1; i < len(records); i++ {
		if records[i].BaseFingerprint != records[i-1].NewFingerprint {
			return nil, fmt.Errorf("record %d bases on %s, record %d produced %s: %w",
				i, records[i].BaseFingerprint, i-1, records[i-1].NewFingerprint, ErrChain)
		}
	}
	if len(records) == 0 {
		return nil, nil
	}
	// Resume at the LAST point the chain passes through baseFP: content
	// fingerprints can revisit a state (insert X, delete X), and the later
	// resume point applies the fewest records for the same final state.
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].NewFingerprint == baseFP {
			return records[i+1:], nil
		}
	}
	if records[0].BaseFingerprint == baseFP {
		return records, nil
	}
	return nil, fmt.Errorf("%w: snapshot %s not in log chain %s..%s",
		ErrBaseMismatch, baseFP, records[0].BaseFingerprint, records[len(records)-1].NewFingerprint)
}

// SyncPolicy selects when Append makes records durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Append: an acknowledged mutation
	// survives kill -9 and power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer: a crash loses at most the last
	// interval's acknowledged mutations (kill -9 of the process alone
	// loses nothing — the page cache survives process death).
	SyncInterval
	// SyncNone never fsyncs explicitly: the OS writes back on its own
	// schedule. Process crashes lose nothing; power loss may lose the
	// page-cache window.
	SyncNone
)

// ParseSyncPolicy maps the flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configure Open.
type Options struct {
	// Sync is the durability policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 100ms).
	SyncInterval time.Duration
	// FS is the filesystem to operate on (default the real OS); tests
	// inject a vfs.FaultFS here.
	FS vfs.FS
}

// Stats describes a log's current extent.
type Stats struct {
	// Records and Bytes are the log's current record count and file size
	// (header included).
	Records int64
	Bytes   int64
	// LastCompaction is when CompactTo last dropped records (zero before
	// the first compaction of this process).
	LastCompaction time.Time
}

// recMeta is the in-memory bookkeeping for one appended record.
type recMeta struct {
	end    int64 // file offset just past the record
	baseFP string
	newFP  string
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialised internally.
type Log struct {
	path string
	fsys vfs.FS
	opts Options

	mu          sync.Mutex
	f           vfs.File
	size        int64
	recs        []recMeta
	dirty       bool // unsynced appended bytes (SyncInterval/SyncNone)
	lastCompact time.Time
	closed      bool
	broken      error // sticky first unrecoverable I/O failure

	recovered int64 // bytes discarded by torn-tail recovery at Open (-1: none)

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

// Open opens (creating if absent) the log at path, scanning any existing
// records. A torn or corrupt tail is truncated in place — RecoveredBytes
// reports how much — and the returned records are the log's valid
// history, ready for Plan. Open fails with ErrBadMagic if path exists
// but is not a WAL (the file is left untouched).
func Open(path string, opts Options) (*Log, []Record, error) {
	if opts.FS == nil {
		opts.FS = vfs.OS()
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, ends, valid, serr := scanRecords(f)
	l := &Log{path: path, fsys: opts.FS, opts: opts, f: f, recovered: -1}
	switch {
	case serr == nil:
	case errors.Is(serr, ErrTorn):
		var tail *TailError
		if errors.As(serr, &tail) {
			l.recovered = tail.Discarded
		}
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	default:
		f.Close()
		return nil, nil, fmt.Errorf("wal: %s: %w", path, serr)
	}
	// A fresh (or header-torn) file needs its header; make it durable
	// immediately so a later torn-tail scan can tell "new log" from
	// "foreign file".
	if valid < int64(headerLen) {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Write([]byte(Magic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: writing header of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: syncing header of %s: %w", path, err)
		}
		valid = int64(headerLen)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.size = valid
	l.recs = make([]recMeta, len(recs))
	for i := range recs {
		l.recs[i] = recMeta{end: ends[i], baseFP: recs[i].BaseFingerprint, newFP: recs[i].NewFingerprint}
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, recs, nil
}

// RecoveredBytes reports how many torn-tail bytes Open discarded, and
// whether any were (distinguishing "recovered zero-length tear" from
// "clean open").
func (l *Log) RecoveredBytes() (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.recovered < 0 {
		return 0, false
	}
	return l.recovered, true
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Append durably adds one record per the sync policy. The record's base
// fingerprint must extend the log's chain (the last record's new
// fingerprint, or anything when the log is empty) — ErrChain otherwise,
// so the on-disk log is a linear history by construction. On an I/O
// failure the partial frame is rolled back and the previous records
// remain intact; if even the rollback fails the log turns sticky-broken
// (ErrBroken) rather than risking appends at a corrupt offset.
func (l *Log) Append(rec Record) error {
	frame, err := EncodeRecord(&rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	if n := len(l.recs); n > 0 && l.recs[n-1].newFP != rec.BaseFingerprint {
		return fmt.Errorf("record bases on %s but the log chain ends at %s: %w",
			rec.BaseFingerprint, l.recs[n-1].newFP, ErrChain)
	}
	if _, err := l.f.Write(frame); err != nil {
		l.rollback(err)
		return fmt.Errorf("wal: append: %w", err)
	}
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			// After a failed fsync the kernel may have dropped the dirty
			// pages; roll the un-acknowledged record back and report. The
			// rollback itself re-syncs nothing — the record was never
			// acknowledged, so losing it is the correct outcome.
			l.rollback(err)
			return fmt.Errorf("wal: sync: %w", err)
		}
	} else {
		l.dirty = true
	}
	l.size += int64(len(frame))
	l.recs = append(l.recs, recMeta{end: l.size, baseFP: rec.BaseFingerprint, newFP: rec.NewFingerprint})
	return nil
}

// rollback restores the file to the last committed size after a failed
// append. Must be called with l.mu held.
func (l *Log) rollback(cause error) {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = fmt.Errorf("%v (rollback truncate failed: %v)", cause, err)
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = fmt.Errorf("%v (rollback seek failed: %v)", cause, err)
	}
}

// Sync flushes appended records to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		// Post-fsync-failure durability is unknowable (the kernel has
		// dropped the dirty flags); refuse further appends instead of
		// acknowledging mutations that may not survive.
		l.broken = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.dirty = false
	return nil
}

// syncLoop is the SyncInterval flusher.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.broken == nil && l.dirty {
				if err := l.f.Sync(); err != nil {
					l.broken = err
				} else {
					l.dirty = false
				}
			}
			l.mu.Unlock()
		}
	}
}

// CompactTo drops every record up to and including the last one whose
// NewFingerprint equals fp: those records are superseded by a durable
// snapshot of state fp. Records after that point — mutations that raced
// the snapshot write — are preserved (the suffix is rewritten through a
// temp file + atomic rename). When fp matches no chain state, CompactTo
// is a safe no-op: better an oversized log than a truncated history. It
// reports how many records were dropped.
func (l *Log) CompactTo(fp string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, fmt.Errorf("%w: %v", ErrBroken, l.broken)
	}
	cut := -1
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].newFP == fp {
			cut = i
			break
		}
	}
	if cut < 0 {
		return 0, nil
	}
	dropped := cut + 1
	if cut == len(l.recs)-1 {
		// The whole log is superseded: truncate in place.
		if err := l.f.Truncate(int64(headerLen)); err != nil {
			return 0, fmt.Errorf("wal: compaction truncate: %w", err)
		}
		if _, err := l.f.Seek(int64(headerLen), io.SeekStart); err != nil {
			l.broken = err
			return 0, err
		}
		if err := l.f.Sync(); err != nil {
			l.broken = err
			return 0, fmt.Errorf("wal: compaction sync: %w", err)
		}
		l.size = int64(headerLen)
		l.recs = l.recs[:0]
		l.dirty = false
		l.lastCompact = time.Now()
		return dropped, nil
	}
	// A suffix survives: rewrite it to a temp log and rename over. A
	// crash before the rename leaves the original intact (plus a swept
	// orphan temp); after it, the log is exactly the surviving suffix.
	keepFrom := l.recs[cut].end
	tmp, err := vfs.CreateTemp(l.fsys, filepath.Dir(l.path), ".wal-*")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); l.fsys.Remove(tmpName) }
	if _, err := tmp.Write([]byte(Magic)); err != nil {
		cleanup()
		return 0, err
	}
	if _, err := l.f.Seek(keepFrom, io.SeekStart); err != nil {
		cleanup()
		l.broken = err
		return 0, err
	}
	if _, err := io.CopyN(tmp, l.f, l.size-keepFrom); err != nil {
		cleanup()
		// The source file offset is now unknown; reset it for appends.
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.broken = serr
		}
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.broken = serr
		}
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		l.fsys.Remove(tmpName)
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.broken = serr
		}
		return 0, err
	}
	if err := l.fsys.Chmod(tmpName, 0o644); err != nil {
		l.fsys.Remove(tmpName)
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.broken = serr
		}
		return 0, err
	}
	if err := l.fsys.Rename(tmpName, l.path); err != nil {
		l.fsys.Remove(tmpName)
		if _, serr := l.f.Seek(l.size, io.SeekStart); serr != nil {
			l.broken = serr
		}
		return 0, err
	}
	if err := vfs.SyncDir(l.fsys, filepath.Dir(l.path)); err != nil {
		// The rename happened; the new file IS the log. Continue, but
		// report: until the directory entry is durable a power loss may
		// resurface the old inode — whose longer history still replays
		// correctly (compaction only dropped superseded records).
		l.reopenAfterCompact(cut)
		return dropped, fmt.Errorf("wal: compaction dir sync: %w", err)
	}
	if err := l.reopenAfterCompact(cut); err != nil {
		return dropped, err
	}
	l.lastCompact = time.Now()
	return dropped, nil
}

// reopenAfterCompact switches l.f to the renamed suffix file and rebuilds
// the bookkeeping. Must be called with l.mu held.
func (l *Log) reopenAfterCompact(cut int) error {
	cutOff := l.recs[cut].end
	nf, err := l.fsys.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.broken = err
		return fmt.Errorf("wal: reopening compacted log: %w", err)
	}
	l.f.Close()
	l.f = nf
	rest := l.recs[cut+1:]
	recs := make([]recMeta, len(rest))
	for i, rm := range rest {
		recs[i] = recMeta{end: rm.end - cutOff + int64(headerLen), baseFP: rm.baseFP, newFP: rm.newFP}
	}
	l.recs = recs
	l.size = int64(headerLen)
	if len(recs) > 0 {
		l.size = recs[len(recs)-1].end
	}
	if _, err := nf.Seek(l.size, io.SeekStart); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// Stats reports the log's current extent.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Records: int64(len(l.recs)), Bytes: l.size, LastCompaction: l.lastCompact}
}

// Close flushes (best effort under SyncInterval/SyncNone) and closes the
// log. Further operations fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	var serr error
	if l.broken == nil && l.dirty {
		serr = l.f.Sync()
	}
	l.closed = true
	cerr := l.f.Close()
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	if serr != nil {
		return serr
	}
	return cerr
}
