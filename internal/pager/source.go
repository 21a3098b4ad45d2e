package pager

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Source is the read side of a page store — the seam that lets an R*-tree
// serve queries from either a heap-backed Store or a zero-copy view over a
// memory-mapped snapshot (Mapped). Both implementations share the exact
// accounting contract: every tracked read charges one page access to the
// source-wide counter and to the per-query Tracker, honours SetCounting,
// and blocks for the configured latency — so I/O statistics are
// bit-identical regardless of the backing.
//
// Source deliberately has no Write/Alloc/Free: mutation requires a heap
// *Store. Callers that need to mutate assert the concrete type, which makes
// "copy-on-write never writes through the mapping" a compile-time property
// rather than a runtime hope.
type Source interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// ReadTracked returns the contents of the page, which must not be
	// modified, charging the access to the tracker too (tr may be nil).
	ReadTracked(id PageID, tr *Tracker) ([]byte, error)
	// ForEachPage visits every page in ascending ID order, uncounted.
	ForEachPage(fn func(id PageID, data []byte) error) error
	// NumPages returns the number of pages held.
	NumPages() int
	// Stats returns the access counters.
	Stats() Stats
	// ResetStats zeroes the access counters.
	ResetStats()
	// SetCounting toggles I/O accounting.
	SetCounting(on bool)
	// SetLatency makes every counted read block for d (0 disables).
	SetLatency(d time.Duration)
}

// Store and Mapped are the two implementations.
var (
	_ Source = (*Store)(nil)
	_ Source = (*Mapped)(nil)
)

// MappedPage names one page of a Mapped source: an ID and a byte slice the
// source serves verbatim (typically a sub-slice of an mmap'd snapshot).
type MappedPage struct {
	ID   PageID
	Data []byte
}

// Mapped is a read-only page source over externally owned bytes — the
// zero-copy serving mode of snapshot format v2, where every page slice
// points into the memory-mapped file and the OS page cache is the buffer
// pool. It has no mutation API at all; Dataset.Apply promotes the image
// into a fresh heap Store instead (copy-on-write).
//
// Reads are lock-free: the page directory is immutable after construction
// and lookups are a binary search over the sorted IDs. The accounting
// counters behave exactly as Store's.
type Mapped struct {
	pageSize int
	ids      []PageID // sorted ascending
	data     [][]byte // data[i] belongs to ids[i]

	reads     atomic.Int64
	countIO   atomic.Bool
	latencyNs atomic.Int64
}

// NewMapped builds a read-only source from pre-sliced pages. IDs must be
// positive and strictly ascending (the snapshot directory order); pages
// must each fit the page size.
func NewMapped(pageSize int, pages []MappedPage) (*Mapped, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	m := &Mapped{
		pageSize: pageSize,
		ids:      make([]PageID, len(pages)),
		data:     make([][]byte, len(pages)),
	}
	for i, p := range pages {
		if p.ID <= NilPage {
			return nil, fmt.Errorf("pager: mapped page %d has invalid id %d", i, p.ID)
		}
		if i > 0 && p.ID <= m.ids[i-1] {
			return nil, fmt.Errorf("pager: mapped page ids not strictly ascending (%d after %d)", p.ID, m.ids[i-1])
		}
		if len(p.Data) > pageSize {
			return nil, fmt.Errorf("pager: mapped page %d holds %d bytes, page size %d", p.ID, len(p.Data), pageSize)
		}
		m.ids[i] = p.ID
		m.data[i] = p.Data
	}
	m.countIO.Store(true)
	return m, nil
}

// PageSize returns the page size in bytes.
func (m *Mapped) PageSize() int { return m.pageSize }

// ReadTracked returns the page contents, which alias the mapping and must
// not be modified, charging exactly one page access to the source counter
// and the tracker — the same contract as Store.ReadTracked, which is what
// keeps Stats.IO bit-identical between heap-decoded and mmap-served
// engines.
func (m *Mapped) ReadTracked(id PageID, tr *Tracker) ([]byte, error) {
	i := sort.Search(len(m.ids), func(i int) bool { return m.ids[i] >= id })
	if i >= len(m.ids) || m.ids[i] != id {
		return nil, fmt.Errorf("pager: read of unallocated page %d", id)
	}
	if m.countIO.Load() {
		m.reads.Add(1)
		tr.AddReads(1)
		if ns := m.latencyNs.Load(); ns > 0 {
			time.Sleep(time.Duration(ns))
		}
	}
	return m.data[i], nil
}

// ForEachPage visits every page in ascending ID order, uncounted.
func (m *Mapped) ForEachPage(fn func(id PageID, data []byte) error) error {
	for i, id := range m.ids {
		if err := fn(id, m.data[i]); err != nil {
			return err
		}
	}
	return nil
}

// NumPages returns the number of mapped pages.
func (m *Mapped) NumPages() int { return len(m.ids) }

// Stats returns the access counters (writes and allocs are always zero:
// the source is read-only by construction).
func (m *Mapped) Stats() Stats { return Stats{Reads: m.reads.Load()} }

// ResetStats zeroes the read counter.
func (m *Mapped) ResetStats() { m.reads.Store(0) }

// SetCounting toggles I/O accounting.
func (m *Mapped) SetCounting(on bool) { m.countIO.Store(on) }

// SetLatency makes every counted read block for d, simulating a storage
// device (0 restores pure in-memory behaviour).
func (m *Mapped) SetLatency(d time.Duration) { m.latencyNs.Store(int64(d)) }
