package server

import (
	"container/list"
	"sync"
)

// lru is a bounded, mutex-guarded LRU map. The server keeps two, both
// bounded by Config.CacheSize: solved mechanisms keyed by the spec's
// content digest, and decoded road networks keyed by the SHA-256 of
// their raw request bytes (see networkFor). Values are shared freely
// between requests; eviction merely drops the map's reference.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used; values are *lruItem[K, V]
	items map[K]*list.Element
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	if max < 1 {
		max = 1
	}
	return &lru[K, V]{
		max:   max,
		ll:    list.New(),
		items: make(map[K]*list.Element, max),
	}
}

// get returns the value for key, promoting it to most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// add inserts (or refreshes) key and returns how many entries were
// evicted to respect the bound.
func (c *lru[K, V]) add(key K, v V) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem[K, V]).val = v
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(&lruItem[K, V]{key: key, val: v})
	evicted := 0
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruItem[K, V]).key)
		evicted++
	}
	return evicted
}

// len returns the number of cached values.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// entries snapshots the cached values in most-recently-used order.
func (c *lru[K, V]) entries() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[K, V]).val)
	}
	return out
}
