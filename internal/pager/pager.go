// Package pager simulates the secondary-storage layer of the paper's
// experimental setup: a page-oriented store with a fixed page size (4 KB by
// default, matching Section 8). The MaxRank experiments report I/O cost as
// the number of page accesses, which is hardware independent, so a
// faithful count is all that is needed — no actual disk is involved. Each
// query counts its own accesses in a Tracker passed to ReadTracked; that
// is the only I/O count there is.
package pager

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPageSize matches the paper's 4 KByte disk pages.
const DefaultPageSize = 4096

// PageID identifies a page within a Store. Zero is never a valid page, so
// the zero value can be used as a null reference.
type PageID int64

// NilPage is the null page reference.
const NilPage PageID = 0

// Store is an in-memory simulation of a paged disk file. It is safe for
// concurrent use: the page table is guarded by an RWMutex so concurrent
// readers never serialise on each other.
type Store struct {
	mu       sync.RWMutex // guards pages, next and free
	pageSize int
	pages    map[PageID][]byte
	next     PageID
	// free holds released page IDs for reuse (LIFO). Without it a store
	// that cycles through allocations — the R*-tree mutation path splits
	// and condenses nodes on every insert/delete batch — would grow its ID
	// space monotonically and never reclaim released slots.
	free []PageID

	// latencyNs > 0 simulates disk access time: every ReadTracked blocks
	// for this long. Concurrent queries overlap these waits, which is
	// exactly the win a parallel engine buys on a disk-resident index.
	latencyNs atomic.Int64
}

// NewStore creates a store with the given page size (DefaultPageSize if
// pageSize <= 0).
func NewStore(pageSize int) *Store {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Store{
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
		next:     1,
	}
}

// PageSize returns the configured page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// Alloc reserves a page and returns its ID, reusing the most recently
// freed page when one is available so that alloc/free churn (index
// mutation) does not grow the ID space without bound.
func (s *Store) Alloc() PageID {
	s.mu.Lock()
	id := NilPage
	for n := len(s.free); n > 0; n = len(s.free) {
		id = s.free[n-1]
		s.free = s.free[:n-1]
		if _, taken := s.pages[id]; taken {
			// The slot was re-occupied out of band (Restore at this ID
			// after the Free); drop the stale free-list entry.
			id = NilPage
			continue
		}
		break
	}
	if id == NilPage {
		id = s.next
		s.next++
	}
	s.pages[id] = nil
	s.mu.Unlock()
	return id
}

// Write stores a copy of data in the page, so the caller may reuse data.
// Data longer than the page size is an error: the caller (the R*-tree)
// sizes its nodes to fit.
func (s *Store) Write(id PageID, data []byte) error {
	return s.Adopt(id, append(make([]byte, 0, len(data)), data...))
}

// Adopt stores data itself as the page, without a copy: the caller hands
// over a buffer it made for the page and must never modify it again. It
// checks what Write checks.
func (s *Store) Adopt(id PageID, data []byte) error {
	if len(data) > s.pageSize {
		return fmt.Errorf("pager: %d bytes exceed page size %d", len(data), s.pageSize)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[id]; !ok {
		return fmt.Errorf("pager: write to unallocated page %d", id)
	}
	s.pages[id] = data
	return nil
}

// ReadTracked returns the contents of the page, which the caller must not
// modify, and charges the access to the tracker (when non-nil).
func (s *Store) ReadTracked(id PageID, tr *Tracker) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pager: read of unallocated page %d", id)
	}
	tr.AddReads(1)
	if ns := s.latencyNs.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
	return data, nil
}

// SetLatency makes every ReadTracked block for d, simulating a storage
// device (0 restores pure in-memory behaviour). Write, Restore and
// ForEachPage never block. Callers set it only once the index over the
// store is built, so construction never sleeps.
func (s *Store) SetLatency(d time.Duration) { s.latencyNs.Store(int64(d)) }

// Restore installs a page image at a specific ID — the restore path of a
// persisted index (internal/snapshot). The ID is allocated if necessary
// and the allocation cursor advances past it, so later Alloc calls never
// collide with restored pages.
func (s *Store) Restore(id PageID, data []byte) error {
	if id <= NilPage {
		return fmt.Errorf("pager: restore of invalid page id %d", id)
	}
	if len(data) > s.pageSize {
		return fmt.Errorf("pager: %d bytes exceed page size %d", len(data), s.pageSize)
	}
	buf := make([]byte, len(data))
	copy(buf, data)
	s.mu.Lock()
	s.pages[id] = buf
	if id >= s.next {
		s.next = id + 1
	}
	s.mu.Unlock()
	return nil
}

// ForEachPage visits every allocated page in ascending ID order with its
// current contents (nil for pages allocated but never written), charging
// no tracker and never blocking. The walk holds the store's read lock
// throughout, so fn must not call back into the store. It is the
// persistence path of a finalized index.
func (s *Store) ForEachPage(fn func(id PageID, data []byte) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := slices.Sorted(maps.Keys(s.pages))
	for _, id := range ids {
		if err := fn(id, s.pages[id]); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a store holding the same pages under the same IDs, as if
// every page had been Restored into a fresh store and ReclaimGaps called:
// the allocation cursor sits one past the highest page held and the free
// list holds the gaps below it, lowest handed out first. The page images
// themselves are shared, not copied — a page is never modified after Write,
// Adopt or Restore, only replaced — so a clone costs one page table, not one
// copy of every page. Writes, allocations and frees on either store leave
// the other untouched. The clone has no latency.
func (s *Store) Clone() *Store {
	c := NewStore(s.pageSize)
	s.mu.RLock()
	c.pages = maps.Clone(s.pages)
	s.mu.RUnlock()
	for id := range c.pages {
		if id >= c.next {
			c.next = id + 1
		}
	}
	c.ReclaimGaps()
	return c
}

// Free releases a page; its ID becomes available to a later Alloc.
// Freeing an unallocated page is a no-op (it must not enter the free list
// twice).
func (s *Store) Free(id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pages[id]; !ok {
		return
	}
	delete(s.pages, id)
	s.free = append(s.free, id)
}

// FreeLen returns the number of page IDs awaiting reuse.
func (s *Store) FreeLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.free)
}

// MaxPageID returns the highest page ID ever allocated (the ID-space
// extent; NumPages can be smaller when pages were freed).
func (s *Store) MaxPageID() PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.next - 1
}

// ReclaimGaps rebuilds the free list from the unallocated IDs below the
// allocation cursor — the restore path's counterpart to Free. A store
// rebuilt from a page image (Restore preserves IDs, gaps included — the
// pages a mutated index had freed) would otherwise leak every gap: Alloc
// could never re-enter them and the ID space would grow monotonically
// across mutation generations.
func (s *Store) ReclaimGaps() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = s.free[:0]
	// Descending push order makes Alloc's LIFO pop hand out the lowest
	// gaps first — deterministic, and it keeps the ID space compact.
	for id := s.next - 1; id > NilPage; id-- {
		if _, ok := s.pages[id]; !ok {
			s.free = append(s.free, id)
		}
	}
}

// ResetStats does nothing: each query counts its page reads in the Tracker
// it passes to ReadTracked, and the store keeps no count of its own.
//
// Deprecated: there is nothing to reset.
func (s *Store) ResetStats() {}

// NumPages returns the number of allocated pages.
func (s *Store) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}
