// Package cache provides the serving stack's per-node result cache: a
// sharded-lock, bounded LRU keyed by node id that stores each target's
// final prediction and realized propagation depth, so hot-node requests
// under skewed (Zipf-like) traffic skip the whole inference pipeline —
// supporting-set BFS, compaction, propagation hops, gating and
// classifier GEMMs — after the first computation.
//
// Exactness is the owner's job, not the cache's: internal/serve holds the
// one cache of a daemon and evicts from it on every effective graph delta —
// the whole cache under the NAP modes, the radius-TMax ball around the dirty
// rows under ModeFixed (see ARCHITECTURE.md, "Result cache"). Two properties
// make caching safe at all:
//
//   - Infer answers are batch-invariant, so an answer computed inside one
//     request's batch is bit-identical to the answer any later batch would
//     compute — a cache hit changes wall-clock, never bits.
//   - Graph deltas report exactly which rows they dirtied, so stale entries
//     can be evicted precisely instead of by TTL guesswork.
//
// Concurrency: every operation locks only the one internal lock shard the
// node id maps to, so concurrent readers on different hot nodes do not
// serialize. Counters are aggregated on demand by Stats.
package cache

import "sync"

// Entry is one cached per-node answer: the final class prediction and the
// personalized propagation depth the engine realized for the node.
type Entry struct {
	// Pred is the predicted class id.
	Pred int32
	// Depth is the propagation depth the node exited at.
	Depth int32
}

// numShards is the lock-shard count of a full-size cache. Caches smaller
// than 2×numShards entries use a single shard so tiny caches (and tests)
// keep strict global LRU order; at serving sizes the id-striped shards keep
// concurrent hot-node readers from serializing on one mutex.
const numShards = 16

// mapEntryBytes approximates the Go runtime's per-entry overhead of the
// map[int]int32 index (bucket key/value slots, tophash bytes and overflow
// pointers, amortized over the load factor). It keeps Stats.Bytes an honest
// estimate of retained memory rather than just the slot arrays.
const mapEntryBytes = 32

// Cache is a bounded LRU over node-id keys with per-shard locking. The
// zero value is not usable; construct with New.
type Cache struct {
	shards []lruShard
}

// New builds a cache holding at most capacity entries (rounded up to a
// multiple of the shard count). Capacity ≤ 0 panics — callers express
// "caching disabled" by not constructing a cache at all.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("cache: capacity must be positive")
	}
	n := numShards
	if capacity < 2*numShards {
		n = 1
	}
	c := &Cache{shards: make([]lruShard, n)}
	per := (capacity + n - 1) / n
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

func (c *Cache) shardFor(node int) *lruShard {
	if node < 0 {
		node = -node
	}
	return &c.shards[node%len(c.shards)]
}

// Get returns the cached answer for node and marks it most-recently-used.
// A miss is counted whether the node was never cached, was evicted, or was
// invalidated by a delta.
func (c *Cache) Get(node int) (Entry, bool) {
	return c.shardFor(node).get(node)
}

// Put records node's answer, evicting the least-recently-used entry of the
// node's lock shard when that shard is full. Re-putting an existing node
// overwrites its entry and refreshes its recency.
func (c *Cache) Put(node int, e Entry) {
	c.shardFor(node).put(node, e)
}

// Invalidate evicts the listed nodes (absent ones are skipped) and returns
// how many entries were actually removed. The owner calls it with the
// radius-bounded ball around a delta's dirty rows.
func (c *Cache) Invalidate(nodes []int) int {
	removed := 0
	for _, v := range nodes {
		if c.shardFor(v).invalidate(v) {
			removed++
		}
	}
	return removed
}

// Flush evicts every entry (counted as invalidations) and returns how many
// were removed. The owner calls it when a delta's effect is not localizable —
// NAP-mode answers coupled to the global stationary state.
func (c *Cache) Flush() int {
	removed := 0
	for i := range c.shards {
		removed += c.shards[i].flush()
	}
	return removed
}

// Len reports the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.idx)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time aggregate of the cache's counters and footprint.
// Counters are totals since construction; Entries/Bytes are gauges.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Entries is the live entry count; Capacity the configured bound
	// (rounded up to a shard multiple).
	Entries  int `json:"entries"`
	Capacity int `json:"capacity_entries"`
	// Bytes estimates the retained heap footprint: the slot arrays actually
	// allocated plus the map index overhead.
	Bytes int `json:"bytes"`
	// HitRate is Hits/(Hits+Misses); 0 before any lookup.
	HitRate float64 `json:"hit_rate"`
}

// Stats aggregates the per-shard counters into one snapshot.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Invalidations += s.invalidations
		st.Entries += len(s.idx)
		st.Capacity += s.cap
		st.Bytes += s.bytes()
		s.mu.Unlock()
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// lruShard is one lock shard: a slot-based intrusive LRU list (head = most
// recent) plus a node→slot index. Slot arrays grow lazily up to cap, so a
// barely used cache retains little memory, and bytes() reports exactly what
// is allocated.
type lruShard struct {
	mu  sync.Mutex
	idx map[int]int32

	nodes      []int
	entries    []Entry
	prev, next []int32
	free       []int32
	head, tail int32
	cap        int

	hits, misses, evictions, invalidations int64
}

func (s *lruShard) init(capacity int) {
	s.idx = make(map[int]int32)
	s.head, s.tail = -1, -1
	s.cap = capacity
}

func (s *lruShard) bytes() int {
	return cap(s.nodes)*8 + cap(s.entries)*8 + (cap(s.prev)+cap(s.next))*4 +
		cap(s.free)*4 + len(s.idx)*mapEntryBytes
}

// unlink removes slot i from the recency list.
func (s *lruShard) unlink(i int32) {
	p, n := s.prev[i], s.next[i]
	if p >= 0 {
		s.next[p] = n
	} else {
		s.head = n
	}
	if n >= 0 {
		s.prev[n] = p
	} else {
		s.tail = p
	}
}

// pushFront makes slot i the most-recently-used.
func (s *lruShard) pushFront(i int32) {
	s.prev[i], s.next[i] = -1, s.head
	if s.head >= 0 {
		s.prev[s.head] = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *lruShard) get(node int) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[node]
	if !ok {
		s.misses++
		return Entry{}, false
	}
	s.hits++
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
	return s.entries[i], true
}

func (s *lruShard) put(node int, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.idx[node]; ok {
		s.entries[i] = e
		if s.head != i {
			s.unlink(i)
			s.pushFront(i)
		}
		return
	}
	var i int32
	switch {
	case len(s.free) > 0:
		i = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	case len(s.nodes) < s.cap:
		i = int32(len(s.nodes))
		s.nodes = append(s.nodes, 0)
		s.entries = append(s.entries, Entry{})
		s.prev = append(s.prev, -1)
		s.next = append(s.next, -1)
	default:
		i = s.tail
		s.unlink(i)
		delete(s.idx, s.nodes[i])
		s.evictions++
	}
	s.nodes[i] = node
	s.entries[i] = e
	s.idx[node] = i
	s.pushFront(i)
}

func (s *lruShard) invalidate(node int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[node]
	if !ok {
		return false
	}
	s.unlink(i)
	delete(s.idx, node)
	s.free = append(s.free, i)
	s.invalidations++
	return true
}

func (s *lruShard) flush() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idx)
	if n == 0 {
		return 0
	}
	s.invalidations += int64(n)
	clear(s.idx)
	s.nodes = s.nodes[:0]
	s.entries = s.entries[:0]
	s.prev = s.prev[:0]
	s.next = s.next[:0]
	s.free = s.free[:0]
	s.head, s.tail = -1, -1
	return n
}
