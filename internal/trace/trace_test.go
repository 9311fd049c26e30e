package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/core"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/sm"
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

// TestNewRejectsNonPositiveWindow checks that New has no default window:
// a non-positive one is a caller bug (the CLI rejects it before it gets
// here), not a request for 5000 cycles.
func TestNewRejectsNonPositiveWindow(t *testing.T) {
	for _, w := range []int64{0, -7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
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

// TestBandwidthIsWindowed replays an identical GPU window by window,
// diffing its SM aggregate and memory stats by hand, and checks each
// Point against that window's values: DRAM bus utilization (not the
// cumulative value since cycle 0), per-kernel IPC, SM-wide and per-kernel
// stall fractions, and resident CTAs.
func TestBandwidthIsWindowed(t *testing.T) {
	g1 := newTracedGPU()
	tl := New(2000)
	tl.Run(g1, 12000)

	g2 := newTracedGPU()
	var prevSM sm.Stats
	var prevBusy, prevTicks uint64
	sawDifference := false
	for i, p := range tl.Points {
		g2.RunCycles(2000)
		st, a := g2.Mem.Stats(), g2.AggregateSM()
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

		slots := float64(a.Slots - prevSM.Slots)
		frac := func(cur, prev uint64) float64 { return float64(cur-prev) / slots }
		check := func(what string, got, want float64) {
			t.Helper()
			if got != want {
				t.Fatalf("point %d %s = %v, want windowed %v", i, what, got, want)
			}
		}
		check("stall_mem", p.StallMem, frac(a.StallMem, prevSM.StallMem))
		check("stall_raw", p.StallRAW, frac(a.StallRAW, prevSM.StallRAW))
		check("stall_exec", p.StallExec, frac(a.StallExec, prevSM.StallExec))
		check("stall_ibuf", p.StallIBuf, frac(a.StallIBuf, prevSM.StallIBuf))
		for k := range p.KernelIPC {
			ka, kb := a.PerKernel[k], prevSM.PerKernel[k]
			check(fmt.Sprintf("ipc k%d", k), p.KernelIPC[k], float64(ka.ThreadInsts-kb.ThreadInsts)/2000)
			check(fmt.Sprintf("stall_mem k%d", k), p.KernelStallMem[k], frac(ka.StallMem, kb.StallMem))
			check(fmt.Sprintf("stall_raw k%d", k), p.KernelStallRAW[k], frac(ka.StallRAW, kb.StallRAW))
			check(fmt.Sprintf("stall_exec k%d", k), p.KernelStallExec[k], frac(ka.StallExec, kb.StallExec))
			check(fmt.Sprintf("stall_ibuf k%d", k), p.KernelStallIBuf[k], frac(ka.StallIBuf, kb.StallIBuf))
			ctas := 0
			for _, s := range g2.SMs {
				ctas += s.ResidentCTAs(k)
			}
			if p.CTAs[k] != ctas {
				t.Fatalf("point %d ctas k%d = %d, want %d", i, k, p.CTAs[k], ctas)
			}
		}
		prevSM, prevBusy, prevTicks = a, st.BusBusy, st.MemTicks
	}
	if !sawDifference {
		t.Fatal("windowed and cumulative bandwidth never diverged; test proves nothing")
	}
}

// TestChromeTracePartialLastWindow checks that a window cut short by the
// end of the run is stamped at its real start, so it does not draw over
// the tail of the window before it.
func TestChromeTracePartialLastWindow(t *testing.T) {
	tl := New(3000)
	tl.Run(newTracedGPU(), 10000)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, ev := range tr.TraceEvents {
		if ev.Name == "ipc" {
			got = append(got, ev.Ts)
		}
	}
	if want := []int64{0, 3000, 6000, 9000}; !reflect.DeepEqual(got, want) {
		t.Errorf("ipc samples stamped at %v, want window starts %v", got, want)
	}
}

// TestTimelineProfiled attaches the engine self-profiler: every window
// carries one phase cost per prof.Phase, some of them positive, and the
// Chrome trace gains the engine phase counter track.
func TestTimelineProfiled(t *testing.T) {
	g := newTracedGPU()
	g.Prof = prof.New(37)
	tl := New(2000)
	tl.Run(g, 10000)
	positive := false
	for i, p := range tl.Points {
		if len(p.EnginePhaseNs) != int(prof.NumPhases) {
			t.Fatalf("point %d has %d engine phases, want %d", i, len(p.EnginePhaseNs), prof.NumPhases)
		}
		for _, ns := range p.EnginePhaseNs {
			positive = positive || ns > 0
		}
	}
	if !positive {
		t.Error("no engine phase advanced in any window")
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"engine phase ns"`)) {
		t.Error("profiled chrome trace has no engine phase ns counters")
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
	// The Chrome trace's controller track carries the repartition instant
	// at the logged event's cycle.
	found := false
	for _, ev := range tl.controllerEvents() {
		found = found || ev.Name == obs.EvRepartition && ev.Ts == rep.Cycle
	}
	if !found {
		t.Fatalf("controller track has no repartition instant at cycle %d", rep.Cycle)
	}
}

// TestTimelineReadsOnlyItsRunEvents checks that a timeline attached to a
// run-scoped view of a shared log reads only that run's events for the
// Chrome trace's controller track.
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
		evs := tl.controllerEvents()
		if len(evs) != c.events {
			t.Fatalf("%s: %d controller events, want %d: %+v", c.log.Run(), len(evs), c.events, evs)
		}
		if evs[0].Ts != c.want {
			t.Errorf("%s: first controller event at %d, want its own repartition at %d", c.log.Run(), evs[0].Ts, c.want)
		}
	}
}
