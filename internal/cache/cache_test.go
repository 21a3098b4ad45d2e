package cache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHitMissAccounting(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()

	v, hit, err := c.Do(ctx, "a", func() (int, error) { return 1, nil })
	if err != nil || hit || v != 1 {
		t.Fatalf("first Do = (%d, %t, %v), want (1, false, nil)", v, hit, err)
	}
	v, hit, err = c.Do(ctx, "a", func() (int, error) { t.Fatal("computed twice"); return 0, nil })
	if err != nil || !hit || v != 1 {
		t.Fatalf("second Do = (%d, %t, %v), want (1, true, nil)", v, hit, err)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missed after Do stored it")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("Get(b) hit on an empty key")
	}

	s := c.Stats()
	want := Stats{Hits: 2, Misses: 2, Evictions: 0, Size: 1, Capacity: 4}
	if s != want {
		t.Fatalf("Stats = %+v, want %+v", s, want)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Add(k, i)
	}
	// Touch "a" so "b" becomes the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("Get(a) missed")
	}
	c.Add("d", 3) // evicts "b"
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order violated")
	}
	if got, want := c.Keys(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v (most recent first)", got, want)
	}
	c.Add("e", 4) // evicts "c"
	c.Add("f", 5) // evicts "a" (Keys read above refreshed nothing)
	for _, k := range []string{"c", "a"} {
		if _, ok := c.Get(k); ok {
			t.Fatalf("%s survived eviction", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 3 || s.Size != 3 {
		t.Fatalf("Stats = %+v, want 3 evictions at size 3", s)
	}
}

func TestAddExistingKeyUpdatesInPlace(t *testing.T) {
	c := New[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("a", 10) // update, not insert: nothing evicted
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = (%d, %t), want (10, true)", v, ok)
	}
	if s := c.Stats(); s.Evictions != 0 || s.Size != 2 {
		t.Fatalf("Stats = %+v, want no evictions at size 2", s)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	const goroutines = 64
	c := New[int](4)
	var computes atomic.Int64
	gate := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	vals := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), "k", func() (int, error) {
				computes.Add(1)
				<-gate // hold every other goroutine in the flight
				return 42, nil
			})
			vals[i], errs[i] = v, err
		}(i)
	}
	// Let the leader enter compute, then give followers time to pile up
	// behind the flight before releasing it.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations for %d concurrent callers, want exactly 1", n, goroutines)
	}
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != int64(goroutines-1) {
		t.Fatalf("Stats = %+v, want 1 miss and %d hits", s, goroutines-1)
	}
}

func TestDoErrorNotCachedAndFollowersRetry(t *testing.T) {
	c := New[int](4)
	boom := errors.New("boom")
	var calls atomic.Int64

	_, hit, err := c.Do(context.Background(), "k", func() (int, error) {
		calls.Add(1)
		return 0, boom
	})
	if !errors.Is(err, boom) || hit {
		t.Fatalf("Do = (hit=%t, err=%v), want the compute error and no hit", hit, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("error result was cached")
	}
	// A later caller recomputes and can succeed.
	v, hit, err := c.Do(context.Background(), "k", func() (int, error) {
		calls.Add(1)
		return 7, nil
	})
	if err != nil || hit || v != 7 {
		t.Fatalf("retry Do = (%d, %t, %v), want (7, false, nil)", v, hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", calls.Load())
	}
}

func TestDoWaiterHonoursContext(t *testing.T) {
	c := New[int](4)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-gate
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter returned %v, want context.DeadlineExceeded", err)
	}
	close(gate)
}

// TestPanicDoesNotPoisonKey checks that a panicking compute (recovered by
// the caller, as net/http does per request) releases the flight: waiters
// fail fast instead of hanging, and the key stays usable.
func TestPanicDoesNotPoisonKey(t *testing.T) {
	c := New[int](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate to the leader")
			}
		}()
		c.Do(context.Background(), "k", func() (int, error) { panic("boom") })
	}()
	// The key must be computable again, promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, hit, err := c.Do(ctx, "k", func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("Do after panic = (%d, %t, %v), want (9, false, nil)", v, hit, err)
	}
}

func TestPurgeAndCapacityClamp(t *testing.T) {
	c := New[string](0) // clamps to 1
	if c.Capacity() != 1 {
		t.Fatalf("Capacity() = %d, want 1", c.Capacity())
	}
	// The clamped cache holds one entry: a second Add evicts the first.
	c.Add("a", "x")
	c.Add("b", "y")
	if c.Len() != 1 {
		t.Fatalf("Len() = %d after two Adds, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived eviction at capacity 1")
	}
}

// TestConcurrentMixedUse hammers every method under -race.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				switch i % 5 {
				case 0:
					c.Do(context.Background(), key, func() (int, error) { return i, nil })
				case 1:
					c.Get(key)
				case 2:
					c.Add(key, i)
				case 3:
					c.Keys()
					c.Len()
				case 4:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("Len() = %d exceeds capacity 16", c.Len())
	}
}
