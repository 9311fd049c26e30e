package gpu

import (
	"fmt"
	"strconv"

	"warpedslicer/internal/obs"
	"warpedslicer/internal/sm"
)

// Register wires the whole device into the registry: the cycle clock,
// per-kernel progress (instructions, resident CTAs, completion), the
// device-wide SM aggregate, per-SM detail, and the memory subsystem.
// Registration is pull-based — it adds nothing to the simulation hot path
// until someone takes a Snapshot.
func (g *GPU) Register(r *obs.Registry) {
	r.Gauge("ws_gpu_cycle", func() float64 { return float64(g.now) })
	r.Gauge("ws_gpu_kernels", func() float64 { return float64(len(g.Kernels)) })

	// Per-kernel progress. The collector walks g.Kernels at snapshot time,
	// so kernels added after Register (or arriving late) appear without
	// re-wiring.
	var insts, resident, done, arrived [MaxKernels]string
	for k := 0; k < MaxKernels; k++ {
		kl := strconv.Itoa(k)
		insts[k] = obs.Label("ws_kernel_thread_insts_total", "kernel", kl)
		resident[k] = obs.Label("ws_kernel_ctas_resident", "kernel", kl)
		done[k] = obs.Label("ws_kernel_done", "kernel", kl)
		arrived[k] = obs.Label("ws_kernel_arrived", "kernel", kl)
	}
	r.Collector(func(emit obs.Emit) {
		for _, k := range g.Kernels {
			emit(insts[k.Slot], obs.Counter, float64(g.KernelInsts(k.Slot)))
			ctas := 0
			for _, s := range g.SMs {
				ctas += s.ResidentCTAs(k.Slot)
			}
			emit(resident[k.Slot], obs.Gauge, float64(ctas))
			emit(done[k.Slot], obs.Gauge, boolGauge(k.Done))
			emit(arrived[k.Slot], obs.Gauge, boolGauge(k.arrived))
		}
	})

	// Device-wide SM aggregate (one Stats walk per snapshot), including
	// the label-free per-kernel stall attribution series.
	aggNames := sm.NewSeries()
	r.Collector(func(emit obs.Emit) {
		agg := g.AggregateSM()
		agg.EmitObs(emit, aggNames)
		emit(ffSkippableName, obs.Counter, float64(g.ffSkippable))
	})

	// State-digest surface. Emitted only while digesting is armed, so
	// golden outputs of digest-off runs are untouched. The 64-bit chain
	// is split into two 32-bit gauges: float64 holds 52 mantissa bits and
	// would silently corrupt a whole chain.
	r.Collector(func(emit obs.Emit) {
		if g.DigestEvery <= 0 {
			return
		}
		emit("ws_digest_records_total", obs.Counter, float64(g.digestRecords))
		emit("ws_digest_period", obs.Gauge, float64(g.DigestEvery))
		emit("ws_digest_chain_lo", obs.Gauge, float64(uint32(g.digestChain)))
		emit("ws_digest_chain_hi", obs.Gauge, float64(uint32(uint64(g.digestChain)>>32)))
	})

	for _, s := range g.SMs {
		s.Register(r)
	}
	g.Mem.Register(r)
	g.Prof.Register(r)
}

// ffSkippableName is the fast-forward opportunity meter's series name.
const ffSkippableName = "ws_gpu_ff_skippable_cycles_total"

// DeviceCounters resolves label-free device counters by name — the
// device-wide ws_sm_*_total aggregates and ws_gpu_ff_skippable_cycles_total
// — once, and returns a reader that fills dst[i] with names[i]'s current
// value: the same float64 a registry Snapshot holds for it, read without
// building one. An unknown or labelled name is an error.
func (g *GPU) DeviceCounters(names []string) (func(dst []float64), error) {
	const ff = -1
	idx := make([]int, len(names))
	for i, name := range names {
		if name == ffSkippableName {
			idx[i] = ff
			continue
		}
		f, ok := sm.StatsCounter(name)
		if !ok {
			return nil, fmt.Errorf("gpu: %q is not a label-free device counter", name)
		}
		idx[i] = f
	}
	return func(dst []float64) {
		agg := g.AggregateSM()
		for i, f := range idx {
			if f == ff {
				dst[i] = float64(g.ffSkippable)
			} else {
				dst[i] = float64(agg.Counter(f))
			}
		}
	}, nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
