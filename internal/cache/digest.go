package cache

import (
	"slices"

	"warpedslicer/internal/digest"
)

// DigestInto walks the cache's architectural state: every line's tag,
// validity and LRU stamp in set order, the outstanding MSHRs in sorted
// address order, the LRU clock, and the access statistics. The eviction
// age histogram is excluded — it is pure observability and never feeds
// back into timing.
func (c *Cache) DigestInto(h *digest.Hasher) {
	h.Int(len(c.lines))
	for i := range c.lines {
		l := &c.lines[i]
		h.U64(l.tag)
		h.Bool(l.valid)
		h.U64(l.used)
	}
	keys := make([]uint64, 0, len(c.mshr))
	for la := range c.mshr {
		keys = append(keys, la)
	}
	slices.Sort(keys)
	h.Int(len(keys))
	for _, la := range keys {
		h.U64(la)
	}
	h.U64(c.tick)
	c.Stats.DigestInto(h)
}

// DigestInto hashes the counter block in field-list order.
func (s *Stats) DigestInto(h *digest.Hasher) {
	for _, v := range s.fields() {
		h.U64(*v)
	}
}
