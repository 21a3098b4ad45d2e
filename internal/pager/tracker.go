package pager

import "sync/atomic"

// Tracker counts the page accesses of one logical activity — typically a
// single query — and is the only I/O count the pager keeps: a source
// charges each ReadTracked to the Tracker passed with it and counts
// nothing itself. Concurrent queries against the same source each carry
// their own Tracker, so a query's reported I/O is exactly the pages *it*
// read, whatever else ran beside it. A nil Tracker charges nothing.
//
// The zero value is ready to use. All methods are safe for concurrent use.
type Tracker struct {
	reads atomic.Int64
}

// AddReads charges n page reads to the tracker.
func (t *Tracker) AddReads(n int64) {
	if t != nil {
		t.reads.Add(n)
	}
}

// Reads returns the page reads charged so far.
func (t *Tracker) Reads() int64 {
	if t == nil {
		return 0
	}
	return t.reads.Load()
}

// Reset zeroes the tracker.
func (t *Tracker) Reset() {
	if t != nil {
		t.reads.Store(0)
	}
}
