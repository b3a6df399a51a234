package serve

import (
	"container/list"
	"sync"
)

// reportCache is the bounded LRU holding encoded analysis documents. The
// budget is bytes of cached document, not entry count, because documents
// vary by orders of magnitude with process and operation counts. Values
// are the exact response bodies, each with its Content-Length value — a hit
// serves stored bytes without re-encoding or measuring anything. Entries
// larger than the whole budget are never admitted (they would only evict
// everything else to be evicted in turn).
type reportCache struct {
	mu    sync.Mutex
	max   int64
	size  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, evictions int64
}

type cacheEntry struct {
	key  string
	body storedBody
}

func newReportCache(maxBytes int64) *reportCache {
	return &reportCache{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached body for key. The bytes are shared and must be
// treated as immutable by callers.
func (c *reportCache) get(key string) (storedBody, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).body, true
	}
	c.misses++
	return storedBody{}, false
}

// add inserts body under key, evicting least-recently-used entries until
// the budget holds, and returns it as stored. Re-adding an existing key
// refreshes its body.
func (c *reportCache) add(key string, b []byte) storedBody {
	body := newStoredBody(b)
	n := int64(len(b))
	if n > c.max {
		return body
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.size += n - int64(len(ent.body.b))
		ent.body = body
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
		c.size += n
	}
	for c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.size -= int64(len(ent.body.b))
		c.evictions++
	}
	return body
}

// cacheStats is the snapshot /healthz reports.
type cacheStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (c *reportCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   len(c.items),
		Bytes:     c.size,
		MaxBytes:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
