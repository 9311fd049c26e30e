package cache

import "warpedslicer/internal/obs"

// Series returns the Stats series names under one label set (e.g.
// "cache","l1","sm","3"). Collectors build it once at registration and
// pass it to EmitObs on every snapshot.
func Series(kv ...string) []string {
	return obs.LabelAll(statsNames[:], kv...)
}

// EmitObs publishes the cache counters through an obs collector callback
// under names, a table built by Series. Callers that own a Stats copy
// (aggregates) can emit it directly without a Cache.
func (s *Stats) EmitObs(emit obs.Emit, names []string) {
	for i, v := range s.fields() {
		emit(names[i], obs.Counter, float64(*v))
	}
}

// Register wires this cache's live counters into the registry under the
// given labels, including the eviction-age histogram and the LRU clock
// (ws_cache_ops_total — the denominator for eviction-age rates, since the
// histogram's x-axis is measured in cache operations).
func (c *Cache) Register(r *obs.Registry, kv ...string) {
	names := Series(kv...)
	ops := obs.Label("ws_cache_ops_total", kv...)
	evictionAge := obs.NewHistSeries("ws_cache_eviction_age_ops", kv...)
	r.Collector(func(emit obs.Emit) {
		c.Stats.EmitObs(emit, names)
		emit(ops, obs.Counter, float64(c.tick))
		c.EvictionAge.Emit(emit, evictionAge)
	})
}
