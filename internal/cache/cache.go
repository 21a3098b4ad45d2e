// Package cache provides the deduplicating result cache behind
// repro.WithCache: a concurrency-safe LRU keyed by strings, with
// singleflight deduplication so that N concurrent requests for the same
// missing key trigger exactly one computation while the other N-1 callers
// wait for (and share) its result.
//
// The package is generic over the cached value type and knows nothing
// about MaxRank; the engine layer builds keys from the query identity
// (dataset fingerprint, focal, algorithm, τ, ...) and stores *repro.Result
// values. Cached values are shared between callers and must be treated as
// immutable.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache is a fixed-capacity LRU map with singleflight deduplication.
// All methods are safe for concurrent use. The zero value is not usable;
// construct with New.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight[V]

	hits      int64
	misses    int64
	evictions int64
}

// entry is what an LRU list element carries.
type entry[V any] struct {
	key string
	val V
}

// flight is one in-progress computation that concurrent callers of the
// same key attach to.
type flight[V any] struct {
	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups answered without running the caller's compute
	// function — either from a stored value or by joining an in-flight
	// computation of the same key.
	Hits int64
	// Misses counts lookups that had to run the compute function.
	Misses int64
	// Evictions counts entries dropped because the cache was full.
	Evictions int64
	// Size is the current number of stored entries.
	Size int
	// Capacity is the maximum number of stored entries.
	Capacity int
}

// New creates a cache holding at most capacity entries. Capacities below
// one are clamped to one.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// Get returns the value stored under key, marking it most recently used.
// It never joins an in-flight computation; use Do for that.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Add stores val under key (marking it most recently used), evicting the
// least recently used entry if the cache is over capacity.
func (c *Cache[V]) Add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(key, val)
}

// add stores under the held lock.
func (c *Cache[V]) add(key string, val V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
	for len(c.items) > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
}

// Do returns the value for key, computing it at most once across all
// concurrent callers. On a stored hit it returns (val, true, nil). If the
// key is missing and no computation is in flight, the caller becomes the
// leader: it runs compute, stores a successful result, and returns
// (val, false, err). Concurrent callers for the same key wait for the
// leader and share its successful result as a hit; if the leader fails
// (including by cancellation of its own context) the error is not cached
// and each waiter retries, so one transient failure cannot poison the key.
//
// ctx bounds only this caller's wait on another caller's in-flight
// computation; it is not passed to compute, which should capture the
// caller's context itself.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, bool, error) {
	var zero V
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			v := el.Value.(*entry[V]).val
			c.mu.Unlock()
			return v, true, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if fl.err == nil {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return fl.val, true, nil
			}
			// The leader failed; its error may be specific to it (e.g. its
			// context was cancelled). Retry — possibly becoming the leader.
			if err := ctx.Err(); err != nil {
				return zero, false, err
			}
			continue
		}
		fl := &flight[V]{done: make(chan struct{})}
		c.inflight[key] = fl
		c.misses++
		c.mu.Unlock()

		c.runFlight(key, fl, compute)
		return fl.val, false, fl.err
	}
}

// runFlight executes the leader's computation, storing the result and
// releasing the flight's waiters. The release runs deferred so that a
// panicking compute (recovered further up, e.g. by net/http) cannot leave
// a dead flight behind that would block every future caller of the key.
func (c *Cache[V]) runFlight(key string, fl *flight[V], compute func() (V, error)) {
	completed := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if completed && fl.err == nil {
			c.add(key, fl.val)
		} else if !completed {
			// compute panicked: waiters must not see a zero value as a
			// success, and the error path makes them retry.
			fl.err = errPanicked
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.err = compute()
	completed = true
}

// errPanicked is surfaced to waiters whose leader's compute panicked; the
// panic itself propagates up the leader's goroutine.
var errPanicked = errors.New("cache: computation panicked")

// Len returns the number of stored entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Capacity returns the maximum number of stored entries.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Keys returns the stored keys, most recently used first.
func (c *Cache[V]) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.items),
		Capacity:  c.capacity,
	}
}
