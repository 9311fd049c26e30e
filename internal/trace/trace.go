// Package trace collects windowed timelines from a running simulation:
// per-kernel IPC, occupancy, stall mix and memory bandwidth per fixed-size
// cycle window. Windows are computed as obs registry snapshot diffs, so the
// timeline sees exactly the counters every other sink sees. Timelines are
// how the profiling controller's decisions can be inspected (the attached
// event log pins the repartition to its exact cycle), and they export to
// CSV and to Chrome trace-event JSON for chrome://tracing.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"warpedslicer/internal/gpu"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/prof"
)

// Point is one window of one timeline.
type Point struct {
	// Cycle is the window's end cycle.
	Cycle int64
	// IPC per kernel slot (thread instructions / window cycles).
	KernelIPC []float64
	// CTAs is the total resident CTA count per kernel slot.
	CTAs []int
	// StallMem/StallRAW/StallExec/StallIBuf are window stall fractions.
	StallMem, StallRAW, StallExec, StallIBuf float64
	// KernelStallMem/RAW/Exec/IBuf split the window stall fractions per
	// kernel slot (same denominator: issue slots in the window), from the
	// device-wide ws_sm_kernel_stall_* attribution counters. Each slice
	// is indexed like KernelIPC.
	KernelStallMem, KernelStallRAW, KernelStallExec, KernelStallIBuf []float64
	// LatP50/LatP95/LatP99 are window percentiles of the L1-miss
	// round-trip latency (core cycles), from the
	// ws_l1_miss_roundtrip_cycles histogram diff.
	LatP50, LatP95, LatP99 float64
	// Bandwidth is the DRAM bus utilization within this window (the
	// delta of the bus-busy and mem-tick counters between snapshots).
	Bandwidth float64
	// EnginePhaseNs, when non-nil, holds the window's wall-clock phase
	// costs (ws_prof_phase_ns deltas, indexed by prof.Phase). It is
	// populated only when the sampled GPU has a self-profiler attached,
	// so CSV goldens of unprofiled runs are untouched.
	EnginePhaseNs []float64
}

// Timeline samples a GPU at fixed windows.
type Timeline struct {
	Window int64
	Points []Point

	// Events, when non-nil, is the run's structured event log. It is the
	// primary source for RepartitionCycle and is rendered alongside the
	// windowed counters by WriteChromeTrace. When it is a run-scoped view
	// of a shared log (obs.EventLog.WithRun), only that run's events are
	// read.
	Events *obs.EventLog

	kernels int

	g    *gpu.GPU
	reg  *obs.Registry
	prev *obs.Snapshot
}

// New creates a timeline with the given window length in cycles.
func New(window int64) *Timeline {
	if window <= 0 {
		window = 5000
	}
	return &Timeline{Window: window}
}

// Run advances the GPU in windows until `cycles` have elapsed (or all
// kernels finish), recording one Point per window. A Timeline may be
// reused across Run calls; pointing it at a different GPU (or a GPU whose
// kernel set grew) re-baselines the window diffs instead of misindexing
// slots.
func (t *Timeline) Run(g *gpu.GPU, cycles int64) {
	if t.g != g {
		t.g = g
		t.reg = obs.NewRegistry()
		g.Register(t.reg)
		t.prev = nil
	}
	t.kernels = len(g.Kernels)
	if t.prev == nil {
		t.prev = t.reg.Snapshot()
	}
	end := g.Now() + cycles
	for g.Now() < end && !g.AllDone() {
		step := t.Window
		if rem := end - g.Now(); rem < step {
			step = rem
		}
		g.RunCycles(step)
		t.sample(g)
	}
}

// kernelSeries builds the registry series name for one kernel slot.
func kernelSeries(name string, slot int) string {
	return obs.Label(name, "kernel", strconv.Itoa(slot))
}

// frac returns a/b, or 0 when b is not positive.
func frac(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// at reads s[k], tolerating short slices (points recorded before a kernel
// set grew).
func at(s []float64, k int) float64 {
	if k < len(s) {
		return s[k]
	}
	return 0
}

// sample records one point at the GPU's current cycle.
func (t *Timeline) sample(g *gpu.GPU) {
	snap := t.reg.Snapshot()
	p := Point{Cycle: g.Now()}

	window := snap.Delta(t.prev, "ws_gpu_cycle")
	if window <= 0 {
		window = float64(t.Window)
	}
	for slot := 0; slot < t.kernels; slot++ {
		dInsts := snap.Delta(t.prev, kernelSeries("ws_kernel_thread_insts_total", slot))
		p.KernelIPC = append(p.KernelIPC, dInsts/window)
		p.CTAs = append(p.CTAs, int(snap.Get(kernelSeries("ws_kernel_ctas_resident", slot))))
	}

	dSlots := snap.Delta(t.prev, "ws_sm_slots_total")
	p.StallMem = frac(snap.Delta(t.prev, "ws_sm_stall_mem_total"), dSlots)
	p.StallRAW = frac(snap.Delta(t.prev, "ws_sm_stall_raw_total"), dSlots)
	p.StallExec = frac(snap.Delta(t.prev, "ws_sm_stall_exec_total"), dSlots)
	p.StallIBuf = frac(snap.Delta(t.prev, "ws_sm_stall_ibuf_total"), dSlots)

	for slot := 0; slot < t.kernels; slot++ {
		p.KernelStallMem = append(p.KernelStallMem,
			frac(snap.Delta(t.prev, kernelSeries("ws_sm_kernel_stall_mem_total", slot)), dSlots))
		p.KernelStallRAW = append(p.KernelStallRAW,
			frac(snap.Delta(t.prev, kernelSeries("ws_sm_kernel_stall_raw_total", slot)), dSlots))
		p.KernelStallExec = append(p.KernelStallExec,
			frac(snap.Delta(t.prev, kernelSeries("ws_sm_kernel_stall_exec_total", slot)), dSlots))
		p.KernelStallIBuf = append(p.KernelStallIBuf,
			frac(snap.Delta(t.prev, kernelSeries("ws_sm_kernel_stall_ibuf_total", slot)), dSlots))
	}

	lat := snap.HistWindow(t.prev, "ws_l1_miss_roundtrip_cycles")
	p.LatP50 = lat.Quantile(0.50)
	p.LatP95 = lat.Quantile(0.95)
	p.LatP99 = lat.Quantile(0.99)

	p.Bandwidth = frac(snap.Delta(t.prev, "ws_dram_bus_busy_total"),
		snap.Delta(t.prev, "ws_dram_ticks_total"))

	var phases []float64
	var any bool
	for ph := prof.Phase(0); ph < prof.NumPhases; ph++ {
		d := snap.Delta(t.prev, obs.Label("ws_prof_phase_ns", "phase", ph.String()))
		if d > 0 {
			any = true
		}
		phases = append(phases, d)
	}
	if any {
		p.EnginePhaseNs = phases
	}

	t.prev = snap
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

// runEvents returns the events of the timeline's own run: those emitted
// under Events' run scope (nil without a log).
func (t *Timeline) runEvents() []obs.Event {
	if t.Events == nil {
		return nil
	}
	return t.Events.FilterRun(t.Events.Run())
}

// RepartitionCycle returns the cycle the controller's repartition landed
// for kernel `slot`, or -1 if none. With an attached event log the answer
// is exact: the first repartition event that assigns the slot a non-zero
// CTA budget. Without events it falls back to the CTA-direction heuristic
// (the first window where the slot's resident CTA count changed after
// being stable).
func (t *Timeline) RepartitionCycle(slot int) int64 {
	for _, ev := range t.runEvents() {
		if ev.Kind != obs.EvRepartition {
			continue
		}
		if slots, ok := ev.Ints("slots"); ok && slot >= 0 && slot < len(slots) && slots[slot] > 0 {
			return ev.Cycle
		}
	}
	if len(t.Points) < 3 {
		return -1
	}
	for i := 2; i < len(t.Points); i++ {
		a, b, c := t.Points[i-2], t.Points[i-1], t.Points[i]
		if slot < 0 || slot >= len(a.CTAs) || slot >= len(b.CTAs) || slot >= len(c.CTAs) {
			continue
		}
		if a.CTAs[slot] == b.CTAs[slot] && c.CTAs[slot] != b.CTAs[slot] {
			return c.Cycle
		}
	}
	return -1
}
