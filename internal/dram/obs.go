package dram

import "warpedslicer/internal/obs"

// Register wires the channel's counters into the registry under the given
// labels (typically "chan","<i>"). Bus-busy over ticks is the channel's
// bandwidth utilization; queue occupancy over ticks its mean queue depth.
func (ch *Channel) Register(r *obs.Registry, kv ...string) {
	names := obs.LabelAll(statsNames[:], kv...)
	queueLen := obs.Label("ws_dram_queue_len", kv...)
	hitNames := obs.NewHistSeries("ws_dram_service_cycles", append(append([]string(nil), kv...), "row", "hit")...)
	missNames := obs.NewHistSeries("ws_dram_service_cycles", append(append([]string(nil), kv...), "row", "miss")...)
	r.Collector(func(emit obs.Emit) {
		for i, v := range ch.Stats.fields() {
			emit(names[i], obs.Counter, float64(*v))
		}
		emit(queueLen, obs.Gauge, float64(ch.QueueLen()))
		ch.RowHitService.Emit(emit, hitNames)
		ch.RowMissService.Emit(emit, missNames)
	})
}
