package engine

// cacheKey scopes a cached value to one table version: the snapshot's
// content-hash version plus the request text (a query or a question).
type cacheKey struct {
	version, text string
}

// lru is a fixed-capacity LRU map from cacheKey to V. It does not
// lock: its owner (cached) guards it.
type lru[V any] struct {
	cap   int
	items map[cacheKey]*lruEntry[V]
	// ring is the sentinel of the recency ring: ring.next is the most
	// recently used entry, ring.prev the least.
	ring lruEntry[V]
}

type lruEntry[V any] struct {
	key        cacheKey
	val        V
	prev, next *lruEntry[V]
}

func newLRU[V any](capacity int) *lru[V] {
	c := &lru[V]{cap: capacity, items: make(map[cacheKey]*lruEntry[V], capacity)}
	c.ring.prev, c.ring.next = &c.ring, &c.ring
	return c
}

func (c *lru[V]) unlink(e *lruEntry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *lru[V]) pushFront(e *lruEntry[V]) {
	e.prev, e.next = &c.ring, c.ring.next
	e.prev.next, e.next.prev = e, e
}

// get returns the cached value and refreshes its recency.
func (c *lru[V]) get(key cacheKey) (val V, ok bool) {
	e, ok := c.items[key]
	if !ok {
		return val, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when over capacity.
func (c *lru[V]) put(key cacheKey, val V) {
	if e, ok := c.items[key]; ok {
		e.val = val
		c.unlink(e)
		c.pushFront(e)
		return
	}
	e := &lruEntry[V]{key: key, val: val}
	c.items[key] = e
	c.pushFront(e)
	for len(c.items) > c.cap {
		last := c.ring.prev
		c.unlink(last)
		delete(c.items, last.key)
	}
}

// purgeVersion removes every entry of one table version — the
// version-scoped invalidation primitive. O(n) over the cache, which is
// bounded by cap.
func (c *lru[V]) purgeVersion(version string) {
	for key, e := range c.items {
		if key.version == version {
			c.unlink(e)
			delete(c.items, key)
		}
	}
}

// len reports the current number of entries.
func (c *lru[V]) len() int { return len(c.items) }
