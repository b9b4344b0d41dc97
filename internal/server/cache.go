package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nwhy"
)

// CacheKey identifies one constructed s-line graph by what is built: every
// build runs the facade's default construction options. Epoch is the
// dataset's mutation epoch at request time: a commit bumps it,
// so every entry built before the commit simply stops being addressable and
// ages out of the LRU — mutation invalidates the cache without any explicit
// invalidation traffic.
type CacheKey struct {
	Dataset  string
	S        int
	Edges    bool
	Weighted bool
	Epoch    uint64
}

// base strips the epoch off the key: the identity of the request independent
// of dataset version, the key of Server.latest.
func (k CacheKey) base() CacheKey {
	k.Epoch = 0
	return k
}

// cacheEntry is one single-flight slot. done is closed exactly once, when
// the building request finishes (successfully or not); waiters block on it
// (or their own ctx) instead of re-running the construction.
type cacheEntry struct {
	key  CacheKey
	done chan struct{}

	// Written once before done is closed, read-only after.
	lg  *nwhy.SLineGraph
	wlg *nwhy.WeightedSLineGraph
	err error
}

// SLineCache is a bounded LRU of constructed s-line graphs with
// single-flight deduplication: N concurrent requests for the same key cost
// one construction, and repeated requests cost none. Cached handles are
// never mutated by queries (the facade's *Ctx variants derive per-call
// engine bindings), so one entry can serve any number of concurrent
// readers.
type SLineCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[CacheKey]*list.Element // value: *cacheEntry
	order    *list.List                 // front = most recent

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64
	evictions atomic.Int64
}

// NewSLineCache builds a cache bounded to capacity entries (< 1: 64).
func NewSLineCache(capacity int) *SLineCache {
	if capacity < 1 {
		capacity = 64
	}
	return &SLineCache{
		capacity: capacity,
		entries:  map[CacheKey]*list.Element{},
		order:    list.New(),
	}
}

// Get returns the s-line graph for key, running build under single-flight on
// a miss. The third return reports whether the result came from cache (a
// wait on another request's in-flight build counts as a hit — nothing was
// constructed for this caller). Failed builds — a panic counts as one — are
// evicted so the next request retries. A build that failed only because its
// own request was cancelled fails that request alone: a waiter whose ctx is
// live retries, building or waiting on the next build.
func (c *SLineCache) Get(ctx context.Context, key CacheKey, build func() (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, error)) (*nwhy.SLineGraph, *nwhy.WeightedSLineGraph, bool, error) {
	c.mu.Lock()
	for el, ok := c.entries[key]; ok; el, ok = c.entries[key] {
		e := el.Value.(*cacheEntry)
		c.order.MoveToFront(el)
		c.mu.Unlock()
		select {
		case <-e.done:
			// Built (or failed) already.
		default:
			c.waits.Add(1)
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, nil, false, ctx.Err()
			}
		}
		if e.err == nil {
			c.hits.Add(1)
			return e.lg, e.wlg, true, nil
		}
		cancelled := errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)
		if !cancelled || ctx.Err() != nil {
			return nil, nil, false, e.err
		}
		c.remove(key, e)
		c.mu.Lock()
	}

	// Miss: install an in-flight entry, then build outside the lock.
	e := &cacheEntry{key: key, done: make(chan struct{})}
	c.entries[key] = c.order.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Add(1)

	func() {
		// A panicking build must still close its entry, with an error:
		// waiters would otherwise block on it for good, and evictLocked
		// never drops an entry that is not done.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("server: s-line build panicked: %v", r)
			}
			close(e.done)
		}()
		e.lg, e.wlg, e.err = build()
	}()
	if e.err != nil {
		c.remove(key, e)
		return nil, nil, false, e.err
	}
	return e.lg, e.wlg, false, nil
}

// evictLocked drops least-recently-used completed entries until the cache
// fits. In-flight entries are skipped: evicting one would strand its
// waiters without invalidating the build.
func (c *SLineCache) evictLocked() {
	for c.order.Len() > c.capacity {
		evicted := false
		for el := c.order.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			select {
			case <-e.done:
				c.order.Remove(el)
				delete(c.entries, e.key)
				c.evictions.Add(1)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything over capacity is in flight; let builds finish
		}
	}
}

// remove drops key iff it still maps to e (a concurrent rebuild may have
// replaced it).
func (c *SLineCache) remove(key CacheKey, e *cacheEntry) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Len reports the number of cached (or in-flight) entries.
func (c *SLineCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports lifetime hits, misses, and single-flight waits. Waits are
// also counted as hits once the awaited build lands.
func (c *SLineCache) Stats() (hits, misses, waits int64) {
	return c.hits.Load(), c.misses.Load(), c.waits.Load()
}

// Evictions reports the lifetime count of completed entries dropped by the
// LRU bound — including stale-epoch entries aged out after mutations.
func (c *SLineCache) Evictions() int64 { return c.evictions.Load() }
