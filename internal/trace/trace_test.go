package trace

import (
	"strings"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/core"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
)

func newTracedGPU() *gpu.GPU {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.AddKernel(kernels.ByAbbr("BLK"), 0)
	return g
}

func TestTimelineCollectsWindows(t *testing.T) {
	g := newTracedGPU()
	tl := New(2000)
	tl.Run(g, 10000)
	if len(tl.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(tl.Points))
	}
	for i, p := range tl.Points {
		if p.Cycle != int64(2000*(i+1)) {
			t.Fatalf("point %d cycle = %d", i, p.Cycle)
		}
		if len(p.KernelIPC) != 2 || len(p.CTAs) != 2 {
			t.Fatalf("point %d has wrong kernel arity", i)
		}
	}
	// Both kernels should show activity in the first window.
	if tl.Points[0].KernelIPC[0] <= 0 || tl.Points[0].KernelIPC[1] <= 0 {
		t.Fatal("no IPC recorded in first window")
	}
}

func TestTimelineStallFractionsBounded(t *testing.T) {
	g := newTracedGPU()
	tl := New(1000)
	tl.Run(g, 5000)
	for i, p := range tl.Points {
		sum := p.StallMem + p.StallRAW + p.StallExec + p.StallIBuf
		if sum < 0 || sum > 1.0001 {
			t.Fatalf("point %d stall sum %.3f out of range", i, sum)
		}
		if p.Bandwidth < 0 || p.Bandwidth > 1 {
			t.Fatalf("point %d bandwidth %.3f out of range", i, p.Bandwidth)
		}
	}
}

func TestTimelineCSV(t *testing.T) {
	g := newTracedGPU()
	tl := New(2500)
	tl.Run(g, 5000)
	var sb strings.Builder
	if err := tl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 windows
		t.Fatalf("csv lines = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "cycle,ipc_k0,ctas_k0,ipc_k1,ctas_k1") {
		t.Fatalf("bad header: %s", lines[0])
	}
	for _, col := range []string{
		"stall_mem_k0", "stall_ibuf_k1", "lat_p50", "lat_p95", "lat_p99",
	} {
		if !strings.Contains(lines[0], ","+col) {
			t.Fatalf("header missing %s: %s", col, lines[0])
		}
	}
	// 1 cycle + 2*(ipc,ctas) + 4 SM-wide stalls + 2*4 per-kernel stalls
	// + 3 latency percentiles + bandwidth = 21 columns.
	want := len(strings.Split(lines[0], ","))
	for _, l := range lines[1:] {
		if len(strings.Split(l, ",")) != want || want != 21 {
			t.Fatalf("bad column count in %q (want %d)", l, want)
		}
	}
}

// TestTimelinePerKernelStallsSumToTotal checks each window's per-kernel
// stall fractions against the SM-wide class fraction — the windowed face of
// the conservation invariant (equal denominators make the sums exact up to
// float rounding).
func TestTimelinePerKernelStallsSumToTotal(t *testing.T) {
	g := newTracedGPU()
	tl := New(2000)
	tl.Run(g, 12000)
	for i, p := range tl.Points {
		check := func(class string, total float64, per []float64) {
			sum := 0.0
			for _, v := range per {
				sum += v
			}
			if diff := sum - total; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("point %d %s: per-kernel sum %.12f != total %.12f", i, class, sum, total)
			}
		}
		check("mem", p.StallMem, p.KernelStallMem)
		check("raw", p.StallRAW, p.KernelStallRAW)
		check("exec", p.StallExec, p.KernelStallExec)
		check("ibuf", p.StallIBuf, p.KernelStallIBuf)
		if p.LatP50 < 0 || p.LatP95 < p.LatP50 || p.LatP99 < p.LatP95 {
			t.Fatalf("point %d latency percentiles not ordered: p50=%g p95=%g p99=%g",
				i, p.LatP50, p.LatP95, p.LatP99)
		}
	}
}

func TestTimelineSeesRepartition(t *testing.T) {
	ctrl := core.NewController()
	ctrl.WarmupCycles = 4000
	ctrl.SampleCycles = 2000
	g := gpu.New(config.Baseline(), ctrl)
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.AddKernel(kernels.ByAbbr("BLK"), 0)

	tl := New(1000)
	tl.Run(g, 30000)
	if !ctrl.Decided() {
		t.Fatal("controller never decided")
	}
	// The CTA timeline must not be flat: profiling layout differs from
	// the final partition.
	first := tl.Points[0].CTAs[0]
	varied := false
	for _, p := range tl.Points {
		if p.CTAs[0] != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("timeline never observed an occupancy change")
	}
}

func TestTimelineDefaultWindow(t *testing.T) {
	tl := New(0)
	if tl.Window != 5000 {
		t.Fatalf("default window = %d, want 5000", tl.Window)
	}
}

func TestTimelineStopsWhenAllDone(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("IMG"), 50000) // small target
	tl := New(2000)
	tl.Run(g, 1_000_000)
	if !g.AllDone() {
		t.Fatal("kernel never finished")
	}
	if int64(len(tl.Points))*tl.Window > 200000 {
		t.Fatal("timeline kept running long after completion")
	}
}

// TestBandwidthIsWindowed replays an identical GPU window by window and
// checks each Point.Bandwidth equals that window's DRAM bus utilization
// delta — not the cumulative value since cycle 0.
func TestBandwidthIsWindowed(t *testing.T) {
	g1 := newTracedGPU()
	tl := New(2000)
	tl.Run(g1, 12000)

	g2 := newTracedGPU()
	var prevBusy, prevTicks uint64
	sawDifference := false
	for i, p := range tl.Points {
		g2.RunCycles(2000)
		st := g2.Mem.Stats()
		dBusy, dTicks := st.BusBusy-prevBusy, st.MemTicks-prevTicks
		want := 0.0
		if dTicks > 0 {
			want = float64(dBusy) / float64(dTicks)
		}
		if p.Bandwidth != want {
			t.Fatalf("point %d bandwidth = %v, want windowed %v", i, p.Bandwidth, want)
		}
		if cum := st.BandwidthUtil(); cum != want {
			sawDifference = true
		}
		prevBusy, prevTicks = st.BusBusy, st.MemTicks
	}
	if !sawDifference {
		t.Fatal("windowed and cumulative bandwidth never diverged; test proves nothing")
	}
}

// TestTimelineReuseAcrossGPUs guards the old bug where prevInsts was sized
// once from the first GPU: reusing a Timeline on a second device must
// re-baseline instead of diffing against the first device's counters.
func TestTimelineReuseAcrossGPUs(t *testing.T) {
	tl := New(2000)
	g1 := gpu.New(config.Baseline(), policy.FCFS{})
	g1.AddKernel(kernels.ByAbbr("IMG"), 0)
	tl.Run(g1, 4000)

	g2 := gpu.New(config.Baseline(), policy.FCFS{})
	g2.AddKernel(kernels.ByAbbr("IMG"), 0)
	g2.AddKernel(kernels.ByAbbr("BLK"), 0)
	tl.Run(g2, 4000)

	if len(tl.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(tl.Points))
	}
	// The second device's points must carry both kernels and sane values.
	for _, p := range tl.Points[2:] {
		if len(p.KernelIPC) != 2 || len(p.CTAs) != 2 {
			t.Fatalf("second-GPU point has arity %d, want 2", len(p.KernelIPC))
		}
		for k, ipc := range p.KernelIPC {
			if ipc <= 0 {
				t.Fatalf("second-GPU kernel %d ipc = %v, want > 0 (stale baseline?)", k, ipc)
			}
		}
	}
	// A fresh baseline means the second device's first window cannot be
	// polluted by g1's cumulative counters (which would go negative or
	// explode); sanity-bound it against the device's issue width.
	if ipc := tl.Points[2].KernelIPC[0]; ipc > 64 {
		t.Fatalf("second-GPU first-window ipc = %v, implausible", ipc)
	}
}

func TestRepartitionCycleFromEvents(t *testing.T) {
	ctrl := core.NewController()
	ctrl.WarmupCycles = 4000
	ctrl.SampleCycles = 2000
	log := obs.NewEventLog()
	ctrl.Log = log
	g := gpu.New(config.Baseline(), ctrl)
	g.Log = log
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.AddKernel(kernels.ByAbbr("BLK"), 0)

	tl := New(1000)
	tl.Events = log
	tl.Run(g, 30000)
	if !ctrl.Decided() || ctrl.ChoseSpatial {
		t.Skip("pair did not take the intra-SM path")
	}
	rep, ok := log.First(obs.EvRepartition)
	if !ok {
		t.Fatal("controller logged no repartition")
	}
	for slot := 0; slot < 2; slot++ {
		if got := tl.RepartitionCycle(slot); got != rep.Cycle {
			t.Fatalf("RepartitionCycle(%d) = %d, want exact event cycle %d", slot, got, rep.Cycle)
		}
	}
	// The event answer is exact — not quantized to a window boundary.
	if rep.Cycle%tl.Window == 0 {
		t.Logf("note: repartition happened to land on a window boundary (%d)", rep.Cycle)
	}
	// Out-of-range slots fall back to the heuristic, and must not panic.
	if got := tl.RepartitionCycle(99); got != -1 {
		t.Fatalf("RepartitionCycle(99) = %d, want -1", got)
	}
}

// TestTimelineReadsOnlyItsRunEvents checks that a timeline attached to a
// run-scoped view of a shared log reads only that run's events, both for
// RepartitionCycle and for the Chrome trace's controller track.
func TestTimelineReadsOnlyItsRunEvents(t *testing.T) {
	root := obs.NewEventLog()
	a := root.WithRun("timeline/dynamic/IMG_BLK")
	b := root.WithRun("timeline/dynamic/MM_BFS")
	b.Emit(1500, obs.EvRepartition, map[string]any{"slots": []int{3, 4}})
	a.Emit(2500, obs.EvRepartition, map[string]any{"slots": []int{5, 2}})
	b.Emit(2600, obs.EvDecision, map[string]any{})

	for _, c := range []struct {
		log    *obs.EventLog
		want   int64
		events int
	}{{a, 2500, 1}, {b, 1500, 2}} {
		tl := New(1000)
		tl.Events = c.log
		for slot := 0; slot < 2; slot++ {
			if got := tl.RepartitionCycle(slot); got != c.want {
				t.Errorf("%s: RepartitionCycle(%d) = %d, want %d", c.log.Run(), slot, got, c.want)
			}
		}
		evs := tl.controllerEvents()
		if len(evs) != c.events {
			t.Fatalf("%s: %d controller events, want %d: %+v", c.log.Run(), len(evs), c.events, evs)
		}
		if evs[0].Ts != c.want {
			t.Errorf("%s: first controller event at %d, want its own repartition at %d", c.log.Run(), evs[0].Ts, c.want)
		}
	}
}

func TestRepartitionCycleDetection(t *testing.T) {
	tl := New(1000)
	tl.kernels = 1
	mk := func(cycle int64, ctas int) Point {
		return Point{Cycle: cycle, CTAs: []int{ctas}, KernelIPC: []float64{1}}
	}
	tl.Points = []Point{mk(1000, 4), mk(2000, 4), mk(3000, 4), mk(4000, 7), mk(5000, 7)}
	if got := tl.RepartitionCycle(0); got != 4000 {
		t.Fatalf("repartition cycle = %d, want 4000", got)
	}
	tl.Points = []Point{mk(1000, 4), mk(2000, 4)}
	if got := tl.RepartitionCycle(0); got != -1 {
		t.Fatalf("short timeline should return -1, got %d", got)
	}
	tl.Points = []Point{mk(1000, 4), mk(2000, 4), mk(3000, 4), mk(4000, 4)}
	if got := tl.RepartitionCycle(0); got != -1 {
		t.Fatalf("flat timeline should return -1, got %d", got)
	}
}
