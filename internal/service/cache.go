package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Content-addressed schedule cache. Keys are System.ScheduleKey digests —
// SHA-256 over the canonical DAG serialization, machine fingerprint,
// efficiency scaling, and cap — so two requests share an entry exactly when
// their LPs are identical. A singleflight layer coalesces concurrent misses
// for the same key onto one backend solve: of 64 identical concurrent
// requests, one becomes the leader and solves, the other 63 wait on its
// result and count as cache hits.

// flight is one in-progress backend solve that waiters can join.
type flight struct {
	done chan struct{} // closed once val/err are set
	val  any
	err  error
}

// hitKind classifies how a cache lookup was satisfied.
type hitKind int

const (
	hitMiss      hitKind = iota // caller ran the backend solve
	hitLRU                      // finished schedule found in the LRU
	hitCoalesced                // joined an in-flight identical solve
)

type cacheEntry struct {
	key string
	val any
}

// cache is an LRU keyed by content digest with singleflight dedup. Only
// successful values are cached; errors propagate to every coalesced waiter
// but leave no entry behind (a later retry re-solves).
type cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight
}

func newCache(capacity int) *cache {
	if capacity < 1 {
		capacity = 1
	}
	return &cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// errSolvePanic marks a leader fn that panicked instead of returning; the
// panic is re-raised to the leader's handler (where the recovery middleware
// counts it) while coalesced waiters receive this error.
var errSolvePanic = errors.New("service: solve panicked")

// Do returns the value for key, running fn at most once per key across all
// concurrent callers. The how result reports whether the value came from the
// LRU, an in-flight solve, or a fresh backend run. A waiter whose ctx ends
// before the leader finishes gets ctx.Err() — the leader keeps solving for
// the benefit of the remaining waiters (its own ctx governs it).
func (c *cache) Do(ctx context.Context, key string, fn func() (any, error)) (val any, how hitKind, err error) {
	return c.DoMaybe(ctx, key, func() (any, bool, error) {
		v, err := fn()
		return v, true, err
	})
}

// DoMaybe is Do for values that may be ineligible for caching: fn
// additionally reports whether its (successful) value may enter the LRU.
// Non-cacheable values still coalesce concurrent identical requests — every
// waiter of this flight shares the result — but leave no entry behind, so
// the next request re-solves. Degraded fallback schedules use this: serving
// one under pressure is fine, replaying it from cache after the backend
// recovers is not.
//
// If fn panics, the flight is failed with errSolvePanic (waiters are
// released, the inflight entry is removed) and the panic resumes on the
// leader's goroutine.
func (c *cache) DoMaybe(ctx context.Context, key string, fn func() (val any, cacheable bool, err error)) (val any, how hitKind, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*cacheEntry).val
		c.mu.Unlock()
		return v, hitLRU, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, hitCoalesced, f.err
		case <-ctx.Done():
			return nil, hitCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	completed := false
	cacheable := false
	defer func() {
		if !completed {
			f.err = errSolvePanic
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil && cacheable {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, cacheable, f.err = fn()
	completed = true
	return f.val, hitMiss, f.err
}

// Put inserts a finished value directly, bypassing singleflight — used for
// by-product schedules (a cluster allocation's per-job solves) whose keys
// differ from the request that produced them. An in-flight solve for the
// same key is unaffected: it will overwrite this entry when it lands, with
// an identical value (equal keys imply interchangeable results).
func (c *cache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, val)
}

// Get is a non-coalescing lookup (used by tests and the bench harness).
func (c *cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	return nil, false
}

// Len reports the number of cached entries.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *cache) insertLocked(key string, val any) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}
