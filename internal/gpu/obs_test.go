package gpu_test

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
)

func TestGPURegisterExposesAllLayers(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.AddKernel(kernels.ByAbbr("BLK"), 0)
	r := obs.NewRegistry()
	g.Register(r)

	g.RunCycles(3000)
	s := r.Snapshot()

	for _, name := range []string{
		"ws_gpu_cycle",
		"ws_gpu_kernels",
		`ws_kernel_thread_insts_total{kernel="0"}`,
		`ws_kernel_ctas_resident{kernel="1"}`,
		"ws_sm_slots_total",
		`ws_sm_slots_total{sm="0"}`,
		`ws_cache_loads_total{cache="l1"}`,
		`ws_cache_loads_total{cache="l1",sm="0"}`,
		`ws_cache_loads_total{cache="l2",chan="0"}`,
		"ws_dram_bus_busy_total",
		"ws_dram_ticks_total",
		`ws_dram_served_total{chan="0"}`,
		`ws_dram_served_total{kernel="0"}`,
		`ws_sm_kernel_stall_mem_total{kernel="0"}`,
		`ws_sm_kernel_stall_raw_total{kernel="1"}`,
		`ws_sm_kernel_stall_mem_total{sm="0",kernel="0"}`,
		`ws_l1_miss_roundtrip_cycles_bucket{le="+Inf"}`,
		`ws_l1_miss_roundtrip_cycles_count`,
		`ws_l2_queue_wait_cycles_bucket{le="+Inf"}`,
		`ws_dram_row_hit_service_cycles_bucket{le="+Inf"}`,
		`ws_dram_row_miss_service_cycles_bucket{le="+Inf"}`,
		`ws_dram_service_cycles_bucket{chan="0",row="hit",le="+Inf"}`,
		`ws_cache_eviction_age_ops_bucket{cache="l2",chan="0",le="+Inf"}`,
	} {
		if !s.Has(name) {
			t.Errorf("snapshot missing %s", name)
		}
	}
	if s.Get("ws_gpu_cycle") != 3000 {
		t.Fatalf("ws_gpu_cycle = %v, want 3000", s.Get("ws_gpu_cycle"))
	}
	if s.Get(`ws_kernel_thread_insts_total{kernel="0"}`) <= 0 {
		t.Fatal("kernel 0 executed no instructions")
	}
	if s.Get("ws_sm_slots_total") <= 0 {
		t.Fatal("aggregate SM slots not counted")
	}

	// Counters are monotonic between snapshots and diffs are windowed.
	g.RunCycles(2000)
	s2 := r.Snapshot()
	if d := s2.Delta(s, `ws_kernel_thread_insts_total{kernel="0"}`); d <= 0 {
		t.Fatalf("windowed insts delta = %v, want > 0", d)
	}
	if s2.Get("ws_gpu_cycle") != 5000 {
		t.Fatalf("ws_gpu_cycle = %v, want 5000", s2.Get("ws_gpu_cycle"))
	}
}

func TestGPUMonitorHookFires(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	var calls int
	g.MonitorEvery = 500
	g.Monitor = func(*gpu.GPU) { calls++ }
	g.RunCycles(2000)
	if calls != 4 {
		t.Fatalf("monitor fired %d times, want 4", calls)
	}
}

func TestGPUEmitsKernelLifecycleEvents(t *testing.T) {
	log := obs.NewEventLog()
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.Log = log
	g.AddKernel(kernels.ByAbbr("IMG"), 40_000)
	g.AddKernelAt(kernels.ByAbbr("BLK"), 40_000, 1000)
	g.Run(2_000_000)

	arr, ok := log.First(obs.EvKernelArrival)
	if !ok {
		t.Fatal("no kernel_arrival event")
	}
	if slot, _ := arr.Int("kernel"); slot != 1 {
		t.Fatalf("arrival kernel = %d, want 1", slot)
	}
	if arr.Cycle != 1000 {
		t.Fatalf("arrival cycle = %d, want 1000", arr.Cycle)
	}
	done := log.Filter(obs.EvKernelDone)
	if len(done) != 2 {
		t.Fatalf("kernel_done events = %d, want 2", len(done))
	}
	for _, ev := range done {
		if insts, ok := ev.Int("insts"); !ok || insts < 40_000 {
			t.Fatalf("kernel_done insts = %v", ev.Data)
		}
	}
}

// TestKernelDoneInstsMatchFinalCount is the regression test for the stale
// kernel_done payload: haltKernel used to emit the instruction count from
// the previous checkTargets sample, which could trail the true count by up
// to the sampling period. The emitted insts must equal what KernelInsts
// reports after the run (a halted kernel executes nothing further) and be
// at or past the target that triggered the halt.
func TestKernelDoneInstsMatchFinalCount(t *testing.T) {
	log := obs.NewEventLog()
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.Log = log
	const target = 40_000
	g.AddKernel(kernels.ByAbbr("IMG"), target)
	g.AddKernel(kernels.ByAbbr("BLK"), target)
	g.Run(2_000_000)
	if !g.AllDone() {
		t.Fatal("co-run did not finish")
	}

	done := log.Filter(obs.EvKernelDone)
	if len(done) != 2 {
		t.Fatalf("kernel_done events = %d, want 2", len(done))
	}
	for _, ev := range done {
		slot, ok := ev.Int("kernel")
		if !ok {
			t.Fatalf("kernel_done without slot: %+v", ev)
		}
		insts, ok := ev.Int("insts")
		if !ok {
			t.Fatalf("kernel_done without insts: %+v", ev)
		}
		final := g.KernelInsts(int(slot))
		if uint64(insts) != final {
			t.Errorf("slot %d: kernel_done insts = %d, final count = %d", slot, insts, final)
		}
		if insts < target {
			t.Errorf("slot %d: halted below target: %d < %d", slot, insts, target)
		}
		if k := g.Kernels[slot]; k.Insts != final {
			t.Errorf("slot %d: Kernel.Insts = %d, final count = %d", slot, k.Insts, final)
		}
	}
}

// TestKernelInstsInvalidSlot is the regression test for the modulo-wrap
// bug: an out-of-range slot used to alias another kernel's counters via
// slot%MaxKernels. Invalid slots must read as zero.
func TestKernelInstsInvalidSlot(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.RunCycles(2000)
	if g.KernelInsts(0) == 0 {
		t.Fatal("kernel 0 executed no instructions")
	}
	for _, slot := range []int{-1, gpu.MaxKernels, gpu.MaxKernels + 1, 8 + 0} {
		if slot >= 0 && slot < gpu.MaxKernels {
			continue
		}
		if got := g.KernelInsts(slot); got != 0 {
			t.Errorf("KernelInsts(%d) = %d, want 0 (must not wrap onto a valid slot)", slot, got)
		}
	}
}

// TestDeviceStallConservation checks the attribution invariant device-wide
// on a real co-run: the aggregate per-kernel stall counters sum to the
// aggregate SM-wide classes, the obs series agree with the Stats walk, and
// every label-free aggregate counter equals the sum over its per-SM or
// per-channel series.
func TestDeviceStallConservation(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.AddKernel(kernels.ByAbbr("BLK"), 0)
	r := obs.NewRegistry()
	g.Register(r)
	g.RunCycles(20000)

	agg := g.AggregateSM()
	var mem, raw, exec, ibuf uint64
	for _, ks := range agg.PerKernel {
		mem += ks.StallMem
		raw += ks.StallRAW
		exec += ks.StallExec
		ibuf += ks.StallIBuf
	}
	if mem != agg.StallMem || raw != agg.StallRAW || exec != agg.StallExec || ibuf != agg.StallIBuf {
		t.Fatalf("per-kernel sums (%d/%d/%d/%d) != device-wide (%d/%d/%d/%d)",
			mem, raw, exec, ibuf, agg.StallMem, agg.StallRAW, agg.StallExec, agg.StallIBuf)
	}
	if mem == 0 {
		t.Fatal("co-run recorded no memory stalls; test is vacuous")
	}
	s := r.Snapshot()
	var fromObs float64
	for k := 0; k < gpu.MaxKernels; k++ {
		fromObs += s.Get(obs.Label("ws_sm_kernel_stall_mem_total", "kernel", strconv.Itoa(k)))
	}
	if fromObs != float64(agg.StallMem) {
		t.Fatalf("obs kernel mem-stall sum %g != aggregate %d", fromObs, agg.StallMem)
	}

	sums := map[string]float64{}
	for _, smp := range s.Samples {
		if a, ok := rollupOf(smp); ok {
			sums[a] += smp.Value
		}
	}
	for _, a := range []string{"ws_sm_issued_total", `ws_sm_kernel_warp_insts_total{kernel="1"}`,
		`ws_cache_loads_total{cache="l1"}`, `ws_cache_loads_total{cache="l2"}`, "ws_dram_bus_busy_total"} {
		if sums[a] == 0 {
			t.Fatalf("roll-up of %s is empty; test is vacuous", a)
		}
	}
	aggs := make([]string, 0, len(sums))
	for a := range sums {
		aggs = append(aggs, a)
	}
	sort.Strings(aggs)
	for _, a := range aggs {
		if !s.Has(a) {
			t.Errorf("per-instance series roll up to %s, which is not emitted", a)
		} else if got := s.Get(a); got != sums[a] {
			t.Errorf("%s = %g, sum over instances = %g", a, got, sums[a])
		}
	}
}

var instanceLabel = regexp.MustCompile(`,?(sm|chan)="\d+"`)

// rollupOf names the label-free aggregate a per-instance counter rolls up
// into: ws_sm_* and ws_cache_*{cache="l1"} series drop their sm= label,
// ws_cache_*{cache="l2"} series and ws_dram_bus_busy_total drop chan=.
// The cache LRU clock (ws_cache_ops_total) is per-instance only.
func rollupOf(smp obs.Sample) (string, bool) {
	n := smp.Name
	switch {
	case smp.Kind != obs.Counter || !instanceLabel.MatchString(n):
		return "", false
	case strings.HasPrefix(n, "ws_sm_"),
		strings.HasPrefix(n, `ws_cache_`) && strings.Contains(n, `{cache="l1",sm=`),
		strings.HasPrefix(n, `ws_cache_`) && strings.Contains(n, `{cache="l2",chan=`) &&
			!strings.HasPrefix(n, "ws_cache_ops_total"),
		strings.HasPrefix(n, "ws_dram_bus_busy_total{"):
	default:
		return "", false
	}
	a := strings.Replace(instanceLabel.ReplaceAllString(n, ""), "{,", "{", 1)
	return strings.TrimSuffix(a, "{}"), true
}

// TestDeviceCounters checks the direct reader: every label-free
// device-wide counter it serves reads the same value a registry snapshot
// holds, and a name it cannot serve is an error when it is resolved.
func TestDeviceCounters(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.Even{})
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.AddKernel(kernels.ByAbbr("BFS"), 0)
	g.RunCycles(5000)
	reg := obs.NewRegistry()
	g.Register(reg)
	snap := reg.Snapshot()

	names := []string{"ws_gpu_ff_skippable_cycles_total"}
	for _, smp := range snap.Samples {
		if strings.HasPrefix(smp.Name, "ws_sm_") && strings.HasSuffix(smp.Name, "_total") && !strings.Contains(smp.Name, "{") {
			names = append(names, smp.Name)
		}
	}
	if len(names) < 10 {
		t.Fatalf("only %d device counters in the snapshot: %v", len(names), names)
	}
	read, err := g.DeviceCounters(names)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(names))
	read(vals)
	for i, name := range names {
		if vals[i] != snap.Get(name) {
			t.Errorf("%s = %v read directly, %v in the snapshot", name, vals[i], snap.Get(name))
		}
	}

	for _, bad := range []string{"ws_no_such_total", `ws_sm_issued_total{sm="0"}`, "ws_gpu_cycle"} {
		if _, err := g.DeviceCounters([]string{"ws_sm_issued_total", bad}); err == nil {
			t.Errorf("DeviceCounters(%q) resolved, want an error", bad)
		}
	}
}
