package mem

import (
	"strconv"

	"warpedslicer/internal/cache"
	"warpedslicer/internal/obs"
)

// Register wires the memory subsystem into the registry: aggregate DRAM
// bus counters (the windowed-bandwidth source: delta(bus_busy)/delta
// (ticks) is per-window utilization), per-kernel DRAM/L2 counters, the
// aggregate L2, and per-channel detail via each bank's own Register.
func (m *Subsystem) Register(r *obs.Registry) {
	for i, p := range m.parts {
		ch := strconv.Itoa(i)
		p.l2.Register(r, "cache", "l2", "chan", ch)
		p.dram.Register(r, "chan", ch)
	}
	r.Histogram("ws_l1_miss_roundtrip_cycles", &m.l1RT)
	r.Histogram("ws_l2_queue_wait_cycles", &m.l2Wait)
	r.Histogram("ws_dram_backpressure_wait_cycles", &m.retryWait)
	m.Spans.Register(r)
	l2Names := cache.Series("cache", "l2")
	hitNames := obs.NewHistSeries("ws_dram_row_hit_service_cycles")
	missNames := obs.NewHistSeries("ws_dram_row_miss_service_cycles")
	var served, l2Miss, l2Loads [MaxKernels]string
	for k := 0; k < MaxKernels; k++ {
		kl := strconv.Itoa(k)
		served[k] = obs.Label("ws_dram_served_total", "kernel", kl)
		l2Miss[k] = obs.Label("ws_l2_load_misses_total", "kernel", kl)
		l2Loads[k] = obs.Label("ws_l2_loads_total", "kernel", kl)
	}
	r.Collector(func(emit obs.Emit) {
		st := m.Stats()
		var pending int64
		for _, n := range m.replyPending {
			pending += n
		}
		emit("ws_mem_replies_in_flight", obs.Gauge, float64(pending))
		emit("ws_dram_bus_busy_total", obs.Counter, float64(st.BusBusy))
		emit("ws_dram_ticks_total", obs.Counter, float64(st.MemTicks))
		// Aggregate the per-channel service-time histograms into two
		// label-free device-wide series (the per-channel detail stays
		// available under ws_dram_service_cycles{chan=...,row=...}).
		var hit, miss obs.Hist
		for _, p := range m.parts {
			hit.Merge(&p.dram.RowHitService)
			miss.Merge(&p.dram.RowMissService)
		}
		hit.Emit(emit, hitNames)
		miss.Emit(emit, missNames)
		st.L2.EmitObs(emit, l2Names)
		for k := 0; k < MaxKernels; k++ {
			emit(served[k], obs.Counter, float64(st.DRAMServed[k]))
			emit(l2Miss[k], obs.Counter, float64(st.L2MissPerKernel[k]))
			emit(l2Loads[k], obs.Counter, float64(st.L2AccessPerKernel[k]))
		}
	})
}
