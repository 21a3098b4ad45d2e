package rstar

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/pager"
	"repro/internal/vecmath"
)

// RangeCount returns the number of records inside the query window (closed
// box) using the aggregate counts: subtrees fully contained in the window
// contribute their count without being read, which is how the paper derives
// the dominator count |D+| cheaply (Section 5).
func (r Reader) RangeCount(window geom.Rect) (int64, error) {
	var total int64
	err := r.Descend(nil, func(e *Entry, leaf bool) (bool, error) {
		switch {
		case !window.Intersects(e.Rect):
		case leaf:
			total++
		case window.ContainsRect(e.Rect):
			total += e.Count // aggregate shortcut: no descent, no I/O
		default:
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// Item is a record reported by a range search.
type Item struct {
	Point    vecmath.Point
	RecordID int64
}

// RangeSearch invokes fn for every record inside the window. Returning
// false from fn stops the search early. The item's point is valid only
// during the call.
func (r Reader) RangeSearch(window geom.Rect, fn func(Item) bool) error {
	err := r.Descend(nil, func(e *Entry, leaf bool) (bool, error) {
		if !window.Intersects(e.Rect) {
			return false, nil
		}
		if leaf && !fn(Item{Point: e.Point(), RecordID: e.RecordID}) {
			return false, errStop
		}
		return true, nil
	})
	if err == errStop {
		return nil
	}
	return err
}

// errStop ends a RangeSearch whose callback asked to stop.
var errStop = errors.New("rstar: range search stopped")

// CheckInvariants validates structural invariants: MBR containment, entry
// count bounds, aggregate count consistency, and uniform leaf depth. It is
// used by tests and returns the first violation found.
func (t *Tree) CheckInvariants() error {
	_, _, err := t.checkNode(t.root, t.height-1, true)
	return err
}

func (t *Tree) checkNode(id pager.PageID, expectLevel int, isRoot bool) (geom.Rect, int64, error) {
	n, err := t.readNode(id, nil, nil)
	if err != nil {
		return geom.Rect{}, 0, err
	}
	if n.Level != expectLevel {
		return geom.Rect{}, 0, errf("node %d at level %d, expected %d", id, n.Level, expectLevel)
	}
	if len(n.Entries) == 0 {
		if !isRoot || t.size != 0 {
			return geom.Rect{}, 0, errf("node %d is empty", id)
		}
		return geom.UnitCube(t.dim), 0, nil
	}
	if !isRoot && len(n.Entries) < t.minEntriesFor(n) {
		return geom.Rect{}, 0, errf("node %d underfull: %d < %d", id, len(n.Entries), t.minEntriesFor(n))
	}
	if len(n.Entries) > t.maxEntriesFor(n) {
		return geom.Rect{}, 0, errf("node %d overfull: %d > %d", id, len(n.Entries), t.maxEntriesFor(n))
	}
	var total int64
	for i := range n.Entries {
		e := &n.Entries[i]
		if n.Leaf() {
			total++
			continue
		}
		childRect, childCount, err := t.checkNode(e.Child, n.Level-1, false)
		if err != nil {
			return geom.Rect{}, 0, err
		}
		if !e.Rect.ContainsRect(childRect) {
			return geom.Rect{}, 0, errf("node %d entry %d MBR %v does not contain child MBR %v",
				id, i, e.Rect, childRect)
		}
		if e.Count != childCount {
			return geom.Rect{}, 0, errf("node %d entry %d count %d != subtree count %d",
				id, i, e.Count, childCount)
		}
		total += childCount
	}
	return n.MBR(), total, nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf("rstar: invariant violated: "+format, args...)
}
