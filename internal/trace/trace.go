// Package trace collects windowed timelines from a running simulation:
// per-kernel IPC, occupancy, stall mix, L1-miss latency and memory
// bandwidth per fixed-size cycle window. Each window diffs two reads of
// the device's own counter structs, the same counters every obs sink
// publishes. It is the harness's one in-run window sampler: Figure 5
// reads its windows, and `wslicer timeline` exports them to CSV and to
// Chrome trace-event JSON next to the controller's event log.
package trace

import (
	"fmt"
	"io"
	"strings"

	"warpedslicer/internal/gpu"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/metrics"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/sm"
)

// Point is one window of one timeline.
type Point struct {
	// Start and Cycle are the window's start and end cycles.
	Start, Cycle int64
	// IPC per kernel slot (thread instructions / window cycles).
	KernelIPC []float64
	// CTAs is the total resident CTA count per kernel slot.
	CTAs []int
	// StallMem/StallRAW/StallExec/StallIBuf are window stall fractions.
	StallMem, StallRAW, StallExec, StallIBuf float64
	// KernelStallMem/RAW/Exec/IBuf split the window stall fractions per
	// kernel slot (same denominator: issue slots in the window), from the
	// SM aggregate's per-kernel stall attribution. Each slice is indexed
	// like KernelIPC.
	KernelStallMem, KernelStallRAW, KernelStallExec, KernelStallIBuf []float64
	// LatP50/LatP95/LatP99 are window percentiles of the L1-miss
	// round-trip latency (core cycles), from the window's diff of the
	// memory subsystem's round-trip histogram.
	LatP50, LatP95, LatP99 float64
	// Bandwidth is the DRAM bus utilization within this window (the
	// delta of the bus-busy and mem-tick counters between reads).
	Bandwidth float64
	// EnginePhaseNs, when non-nil, holds the window's wall-clock phase
	// costs (profiler phase-total deltas, indexed by prof.Phase). It is
	// set only when the sampled GPU has a self-profiler attached and some
	// phase advanced in the window, so CSV goldens of unprofiled runs are
	// untouched.
	EnginePhaseNs []float64
}

// Timeline samples a GPU at fixed windows.
type Timeline struct {
	Window int64
	Points []Point

	// Events, when non-nil, is the run's structured event log, rendered
	// alongside the windowed counters by WriteChromeTrace. When it is a
	// run-scoped view of a shared log (obs.EventLog.WithRun), only that
	// run's events are read.
	Events *obs.EventLog

	kernels int

	g    *gpu.GPU
	prev reading
}

// New creates a timeline with the given window length in cycles. The
// window must be positive.
func New(window int64) *Timeline {
	if window <= 0 {
		panic(fmt.Sprintf("trace: window = %d, must be positive", window))
	}
	return &Timeline{Window: window}
}

// Run advances the GPU in windows until `cycles` have elapsed (or all
// kernels finish), recording one Point per window. Each call baselines
// the window diffs at its start, so a Timeline may be reused across Run
// calls and across GPUs.
func (t *Timeline) Run(g *gpu.GPU, cycles int64) {
	t.g, t.kernels = g, len(g.Kernels)
	t.prev = read(g)
	end := g.Now() + cycles
	for g.Now() < end && !g.AllDone() {
		g.RunCycles(min(t.Window, end-g.Now()))
		t.sample(g)
	}
}

// reading is one read of the device counters a window diffs, plus the
// resident CTAs per kernel slot (a level, not diffed).
type reading struct {
	cycle   int64
	sm      sm.Stats
	mem     mem.Stats
	l1RT    obs.Hist
	phaseNs [prof.NumPhases]int64
	ctas    [sm.MaxKernels]int
}

// read takes one reading of g.
func read(g *gpu.GPU) reading {
	r := reading{cycle: g.Now(), sm: g.AggregateSM(), mem: g.Mem.Stats(), l1RT: g.Mem.L1RoundTrip()}
	if g.Prof != nil {
		for ph, pc := range g.Prof.Summary().Phases {
			r.phaseNs[ph] = pc.Ns
		}
	}
	for _, s := range g.SMs {
		for k := range r.ctas {
			r.ctas[k] += s.ResidentCTAs(k)
		}
	}
	return r
}

// at reads s[k], tolerating short slices (points recorded before a kernel
// set grew).
func at(s []float64, k int) float64 {
	if k < len(s) {
		return s[k]
	}
	return 0
}

// sample records one point: the window from the previous reading to now.
func (t *Timeline) sample(g *gpu.GPU) {
	cur, prev := read(g), &t.prev
	window := cur.cycle - prev.cycle
	a, b := &cur.sm, &prev.sm
	dSlots := a.Slots - b.Slots
	p := Point{
		Start:     prev.cycle,
		Cycle:     cur.cycle,
		StallMem:  metrics.Frac(a.StallMem-b.StallMem, dSlots),
		StallRAW:  metrics.Frac(a.StallRAW-b.StallRAW, dSlots),
		StallExec: metrics.Frac(a.StallExec-b.StallExec, dSlots),
		StallIBuf: metrics.Frac(a.StallIBuf-b.StallIBuf, dSlots),
		Bandwidth: metrics.Frac(cur.mem.BusBusy-prev.mem.BusBusy, cur.mem.MemTicks-prev.mem.MemTicks),
	}
	for k := 0; k < t.kernels; k++ {
		ka, kb := &a.PerKernel[k], &b.PerKernel[k]
		p.KernelIPC = append(p.KernelIPC, metrics.IPC(ka.ThreadInsts-kb.ThreadInsts, window))
		p.CTAs = append(p.CTAs, cur.ctas[k])
		p.KernelStallMem = append(p.KernelStallMem, metrics.Frac(ka.StallMem-kb.StallMem, dSlots))
		p.KernelStallRAW = append(p.KernelStallRAW, metrics.Frac(ka.StallRAW-kb.StallRAW, dSlots))
		p.KernelStallExec = append(p.KernelStallExec, metrics.Frac(ka.StallExec-kb.StallExec, dSlots))
		p.KernelStallIBuf = append(p.KernelStallIBuf, metrics.Frac(ka.StallIBuf-kb.StallIBuf, dSlots))
	}

	lat := cur.l1RT.Since(&prev.l1RT)
	p.LatP50 = lat.Quantile(0.50)
	p.LatP95 = lat.Quantile(0.95)
	p.LatP99 = lat.Quantile(0.99)

	// Phase totals only grow, so they differ exactly when some phase
	// advanced in the window.
	if cur.phaseNs != prev.phaseNs {
		for ph, ns := range cur.phaseNs {
			p.EnginePhaseNs = append(p.EnginePhaseNs, float64(ns-prev.phaseNs[ph]))
		}
	}

	t.prev = cur
	t.Points = append(t.Points, p)
}

// WriteCSV emits the timeline with one row per window.
func (t *Timeline) WriteCSV(w io.Writer) error {
	var head strings.Builder
	head.WriteString("cycle")
	for k := 0; k < t.kernels; k++ {
		fmt.Fprintf(&head, ",ipc_k%d,ctas_k%d", k, k)
	}
	head.WriteString(",stall_mem,stall_raw,stall_exec,stall_ibuf")
	for k := 0; k < t.kernels; k++ {
		fmt.Fprintf(&head, ",stall_mem_k%d,stall_raw_k%d,stall_exec_k%d,stall_ibuf_k%d", k, k, k, k)
	}
	head.WriteString(",lat_p50,lat_p95,lat_p99,bandwidth\n")
	if _, err := io.WriteString(w, head.String()); err != nil {
		return err
	}
	for _, p := range t.Points {
		var row strings.Builder
		fmt.Fprintf(&row, "%d", p.Cycle)
		for k := 0; k < t.kernels; k++ {
			ipc, ctas := 0.0, 0
			if k < len(p.KernelIPC) {
				ipc, ctas = p.KernelIPC[k], p.CTAs[k]
			}
			fmt.Fprintf(&row, ",%.3f,%d", ipc, ctas)
		}
		fmt.Fprintf(&row, ",%.4f,%.4f,%.4f,%.4f",
			p.StallMem, p.StallRAW, p.StallExec, p.StallIBuf)
		for k := 0; k < t.kernels; k++ {
			fmt.Fprintf(&row, ",%.4f,%.4f,%.4f,%.4f",
				at(p.KernelStallMem, k), at(p.KernelStallRAW, k),
				at(p.KernelStallExec, k), at(p.KernelStallIBuf, k))
		}
		fmt.Fprintf(&row, ",%.1f,%.1f,%.1f,%.4f\n",
			p.LatP50, p.LatP95, p.LatP99, p.Bandwidth)
		if _, err := io.WriteString(w, row.String()); err != nil {
			return err
		}
	}
	return nil
}
