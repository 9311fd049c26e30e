// Package warpedslicer_bench holds one benchmark per table and figure of
// the paper (plus microbenchmarks of the partitioning algorithm and the
// raw simulator). Benchmarks use reduced windows; regenerate the full
// evaluation with `go run ./cmd/wslicer all`.
package warpedslicer_bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"warpedslicer/internal/assert"
	"warpedslicer/internal/config"
	"warpedslicer/internal/core"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/experiments"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
	"warpedslicer/internal/power"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/runlog"
	"warpedslicer/internal/sm"
	"warpedslicer/internal/span"
)

func benchOptions() experiments.Options { return experiments.Quick() }

// BenchmarkTable2 regenerates Table II (per-benchmark utilization).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		rows := experiments.Table2(s)
		if len(rows) != 10 {
			b.Fatal("table2 incomplete")
		}
	}
}

// BenchmarkFigure1 regenerates the stall-cycle breakdown of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		if len(experiments.Figure1(s)) != 10 {
			b.Fatal("figure1 incomplete")
		}
	}
}

// BenchmarkFigure3 measures one compute and one cache-sensitive occupancy
// curve (Figure 3a's axes).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		img := s.OccupancyCurve(kernels.ByAbbr("IMG"))
		nn := s.OccupancyCurve(kernels.ByAbbr("NN"))
		if img.MaxCTAs != 8 || nn.MaxCTAs != 4 {
			b.Fatal("unexpected occupancy limits")
		}
	}
}

// BenchmarkFigure3b regenerates the IMG+NN sweet-spot search (Figure 3b).
func BenchmarkFigure3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		if _, err := s.Figure3b(kernels.ByAbbr("IMG"), kernels.ByAbbr("NN")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Pair runs one pair under all four policies (one row of
// Figure 6, without the oracle).
func BenchmarkFigure6Pair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		rows := experiments.Figure6From(s, experiments.Pairs()[:1], false)
		if rows[0].Dynamic <= 0 {
			b.Fatal("dynamic policy produced no IPC")
		}
	}
}

// BenchmarkFigure6Oracle runs one pair's exhaustive oracle search.
func BenchmarkFigure6Oracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
		if s.Oracle(specs).IPC <= 0 {
			b.Fatal("oracle produced no IPC")
		}
	}
}

// BenchmarkTable3 derives the partition table from a two-pair sweep.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		rows := experiments.Figure6From(s, experiments.Pairs()[:2], false)
		if len(experiments.Table3(s, rows)) != 2 {
			b.Fatal("table3 incomplete")
		}
	}
}

// BenchmarkFigure7 computes utilization/miss/stall aggregates from a
// two-pair sweep (Figure 7's three panels).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		rows := experiments.Figure6From(s, experiments.Pairs()[:2], false)
		a := experiments.Figure7aFrom(s, rows)
		_ = experiments.Figure7bFrom(rows)
		c := experiments.Figure7cFrom(rows)
		if a.ALU <= 0 || len(c) != 4 {
			b.Fatal("figure7 aggregates incomplete")
		}
	}
}

// BenchmarkFigure8Triple runs one three-kernel workload across policies.
func BenchmarkFigure8Triple(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		rows := experiments.Figure6From(s, experiments.Triples()[:1], false)
		if rows[0].Dynamic <= 0 {
			b.Fatal("triple dynamic produced no IPC")
		}
	}
}

// BenchmarkFigure9 computes fairness and ANTT from pair+triple runs.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		pairRows := experiments.Figure6From(s, experiments.Pairs()[:1], false)
		tripleRows := experiments.Figure6From(s, experiments.Triples()[:1], false)
		if len(experiments.Figure9(s, pairRows, tripleRows)) != 4 {
			b.Fatal("figure9 incomplete")
		}
	}
}

// BenchmarkEnergy evaluates the §V-G energy model over one pair sweep.
func BenchmarkEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchOptions())
		rows := experiments.Figure6From(s, experiments.Pairs()[:1], false)
		if len(experiments.Energy(s, rows)) != 4 {
			b.Fatal("energy incomplete")
		}
	}
}

// BenchmarkFigure10a sweeps profiling parameters on one pair.
func BenchmarkFigure10a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure10a(benchOptions(), experiments.Pairs()[:1])
		if len(rows) != 8 {
			b.Fatal("figure10a incomplete")
		}
	}
}

// BenchmarkFigure10b compares warp schedulers on one pair.
func BenchmarkFigure10b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure10b(benchOptions(), experiments.Pairs()[:1])
		if len(rows) != 2 {
			b.Fatal("figure10b incomplete")
		}
	}
}

// BenchmarkBigSM evaluates the §V-H large-SM configuration on one pair.
func BenchmarkBigSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Cfg = config.LargeSM()
		r := experiments.BigSM(o, experiments.Pairs()[:1])
		if r.PerfNorm <= 0 {
			b.Fatal("bigsm produced nothing")
		}
	}
}

// BenchmarkOverhead evaluates the §V-I analytic overhead model.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if power.Overhead(16).TotalMM2 <= 0 {
			b.Fatal("overhead model broken")
		}
	}
}

// --- Microbenchmarks -----------------------------------------------------

func algDemands() []core.Demand {
	mk := func(n int, peak int) []float64 {
		p := make([]float64, n+1)
		for j := 1; j <= n; j++ {
			if j <= peak {
				p[j] = float64(j)
			} else {
				p[j] = float64(peak) - 0.3*float64(j-peak)
			}
		}
		return p
	}
	return []core.Demand{
		{Perf: mk(8, 6), Need: sm.Quota{Regs: 2304, Shm: 2048, Threads: 64, CTAs: 1}},
		{Perf: mk(4, 3), Need: sm.Quota{Regs: 7605, Threads: 169, CTAs: 1}},
		{Perf: mk(5, 1), Need: sm.Quota{Regs: 6360, Threads: 120, CTAs: 1}},
	}
}

// BenchmarkWaterFill measures Algorithm 1's O(K·N) partitioner.
func BenchmarkWaterFill(b *testing.B) {
	d := algDemands()
	total := sm.Quota{Regs: 32768, Shm: 48 * 1024, Threads: 1536, CTAs: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.WaterFill(d, total); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteForce measures the O(N^K) reference optimizer (the
// complexity comparison of §IV).
func BenchmarkBruteForce(b *testing.B) {
	d := algDemands()
	total := sm.Quota{Regs: 32768, Shm: 48 * 1024, Threads: 1536, CTAs: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.BruteForce(d, total); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorCycle measures raw simulator throughput: one GPU cycle
// with all 16 SMs fully occupied by an issue-bound kernel. Its allocs/op
// reads 0 once the hot-path allocation contract holds (DESIGN.md).
func BenchmarkSimulatorCycle(b *testing.B) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.RunCycles(1000) // fill and warm
	b.ReportAllocs()
	b.ResetTimer()
	g.RunCycles(int64(b.N))
}

// BenchmarkSimulatorCycleMemoryBound is BenchmarkSimulatorCycle for the
// Compute+Memory regime: MM co-running with BFS under the even partition.
// Most of BFS's issue slots stall with ready warps held back by a full
// LD/ST line queue. The issue stage, not the memory hierarchy, is still
// the larger host cost here (a CPU profile puts about half of it in
// issueFrom and a fifth in the memory subsystem), so this tracks the
// scheduler fast path that replays those slots.
func BenchmarkSimulatorCycleMemoryBound(b *testing.B) {
	g := gpu.New(config.Baseline(), policy.Even{})
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.AddKernel(kernels.ByAbbr("BFS"), 0)
	g.RunCycles(1000) // fill and warm
	b.ReportAllocs()
	b.ResetTimer()
	g.RunCycles(int64(b.N))
}

// BenchmarkSimulatorCycleInstrumented is BenchmarkSimulatorCycle with the
// full observability layer attached but no sink draining it: every counter
// registered, the event log connected, no monitor period. Compare against
// BenchmarkSimulatorCycle to see the passive cost of instrumentation.
func BenchmarkSimulatorCycleInstrumented(b *testing.B) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.Log = obs.NewEventLog()
	g.Register(obs.NewRegistry())
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.RunCycles(1000) // fill and warm
	b.ResetTimer()
	g.RunCycles(int64(b.N))
}

// BenchmarkRegistrySnapshot measures one full pull of every registered
// series on a 16-SM GPU (what each Hub publication or timeline window
// costs).
func BenchmarkRegistrySnapshot(b *testing.B) {
	g := gpu.New(config.Baseline(), policy.FCFS{})
	reg := obs.NewRegistry()
	g.Register(reg)
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.RunCycles(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reg.Snapshot().Get("ws_gpu_cycle") <= 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// obsTimeRun measures ns/cycle over `cycles` on an already-warm GPU.
// cpuTime returns the process's cumulative user+system CPU time. The
// budgets in this file are defined over CPU cost, and wall-clock deltas
// on shared or quota-throttled machines (CI runners, small VMs) include
// stretches where the process was simply not scheduled — enough to bury
// a 2% overhead or fake a 20% regression between back-to-back runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func obsTimeRun(g *gpu.GPU, cycles int64) float64 {
	// Flush collection work left over from the previous timed segment.
	// Without this, an allocation-heavy configuration (the event log)
	// defers its GC mark work into whichever segment runs next,
	// systematically charging one configuration's garbage to the other.
	runtime.GC()
	start := cpuTime()
	g.RunCycles(cycles)
	return float64(cpuTime()-start) / float64(cycles)
}

// median returns the middle of the sorted samples. Min-of-N systematically
// favors whichever configuration happens to catch one perfectly quiet
// stretch — with two configurations that bias lands on either side at
// random, which is how BENCH_obs.json once recorded a negative
// instrumentation overhead. The median is noise-robust without that
// direction lottery.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// benchWrites reports whether the timing tests may rewrite the tracked
// BENCH_obs.json, BENCH_parallel.json and BENCH_trajectory.jsonl: only
// when WS_BENCH=1, as the CI bench job sets it. Without it the tests
// still measure and enforce every budget but leave the tree unchanged.
//
//	WS_BENCH=1 go test -p 1 . -run 'TestEngineProfileBudget|TestObsOverheadBudget'
func benchWrites() bool { return os.Getenv("WS_BENCH") == "1" }

// mergeBenchJSON merges updates into the JSON object at path, preserving
// keys written by other test configurations (e.g. the simassert-on and
// simassert-off overhead runs both contribute to BENCH_obs.json). The
// write is atomic (temp file + rename): two test configurations racing on
// the same file lose an update at worst, never tear the JSON.
func mergeBenchJSON(t *testing.T, path string, updates map[string]any) {
	t.Helper()
	if !benchWrites() {
		return
	}
	out := map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Logf("overwriting unreadable %s: %v", path, err)
			out = map[string]any{}
		}
	}
	for k, v := range updates {
		out[k] = v
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := runlog.AtomicWriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestObsOverheadBudget proves the observability layer is effectively
// free on the hot path: with every counter registered, the event log
// attached, and the engine self-profiler sampling phase timers at its
// default period — but no sink draining any of it — simulator throughput
// must stay within obsBudgetFrac of the bare configuration. The paired
// median-of-ratios measurement is written to BENCH_obs.json under
// WS_BENCH=1.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if assert.Enabled {
		// Per-cycle invariant checks inflate both configurations; the
		// budget is defined for the shipping (assert-off) build, and
		// TestSimassertOverhead records the assert-on cost instead.
		t.Skip("overhead budget applies to the assert-off build")
	}
	const (
		rounds = 7
		chunk  = int64(10_000)
		// The budget is relative, so it re-anchors when the engine itself
		// gets faster: the ready-set scheduler cut bare ns/cycle ~35%,
		// which pushed the unchanged ~250 ns/cycle instrumentation cost
		// from ~1.9% to ~2.5% of a much cheaper cycle. 3% holds the line
		// at the new engine speed; an *absolute* instrumentation
		// regression of the same relative size as before still trips it.
		obsBudgetFrac = 0.03
	)
	newGPU := func(instrumented bool) *gpu.GPU {
		g := gpu.New(config.Baseline(), policy.FCFS{})
		if instrumented {
			g.Log = obs.NewEventLog()
			g.Prof = prof.New(0) // default period, phase timers live
			g.Register(obs.NewRegistry())
		} else {
			// The bare configuration also turns span sampling off, so the
			// budget covers the default 1-in-64 sampling and recording cost,
			// not just the registry.
			g.Mem.Spans.SetPeriod(0)
		}
		g.AddKernel(kernels.ByAbbr("MM"), 0)
		g.RunCycles(1000)
		return g
	}

	bare, inst, overhead := pairedOverhead(newGPU, rounds, chunk, obsBudgetFrac)

	// The latency histograms (L1 round trip, L2 queue wait, DRAM service,
	// eviction age) Observe inside the model in both configurations, so
	// their cost is already inside bare/inst above; pin the per-Observe
	// price separately so a histogram regression is visible on its own.
	histNs := timeHistObserve()
	sampleNs := timeSpanSample()

	// A negative measured overhead is residual noise, not the
	// instrumented build outrunning the bare one; clamp the recorded
	// fraction to zero so the committed number cannot claim a negative
	// cost (the raw value stays available for noise diagnosis).
	clamped := overhead
	if clamped < 0 {
		clamped = 0
	}
	mergeBenchJSON(t, "BENCH_obs.json", map[string]any{
		"bare_ns_per_cycle":         bare,
		"instrumented_ns_per_cycle": inst,
		"overhead_frac":             clamped,
		"overhead_frac_raw":         overhead,
		"budget_frac":               obsBudgetFrac,
		"rounds":                    rounds,
		"cycles_per_round":          chunk,
		"hist_ns_per_observe":       histNs,
		"span_sampling_ns_per_req":  sampleNs,
	})
	t.Logf("bare %.1f ns/cycle, instrumented %.1f ns/cycle, overhead %.2f%%, hist observe %.2f ns, span sample %.2f ns",
		bare, inst, overhead*100, histNs, sampleNs)
	if overhead >= obsBudgetFrac {
		t.Errorf("passive instrumentation overhead %.2f%% exceeds the %.0f%% budget",
			overhead*100, obsBudgetFrac*100)
	}
}

// pairedOverhead measures what instrumentation costs per simulated cycle:
// newGPU(false) builds the bare configuration and newGPU(true) the
// instrumented one. It returns both median ns/cycle and the overhead
// fraction.
//
// The measurement is paired: both GPUs advance the same simulated window
// each round (the simulator is deterministic, so they stay in lockstep),
// and the overhead is the median of the per-round cost ratios. Pairing
// makes the comparison immune to the workload's own phase structure
// (per-cycle cost drops ~3× as the kernel drains) and to machine drift;
// alternating which configuration runs first each round cancels
// positional bias (the second run of a pair starts warmer). A few
// attempts keep one globally noisy stretch from failing the budget.
func pairedOverhead(newGPU func(instrumented bool) *gpu.GPU, rounds int, chunk int64, budget float64) (bare, inst, overhead float64) {
	for attempt := 0; attempt < 3; attempt++ {
		gBare, gInst := newGPU(false), newGPU(true)
		bareRounds := make([]float64, 0, rounds)
		instRounds := make([]float64, 0, rounds)
		ratios := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			var b, i float64
			if r%2 == 0 {
				b = obsTimeRun(gBare, chunk)
				i = obsTimeRun(gInst, chunk)
			} else {
				i = obsTimeRun(gInst, chunk)
				b = obsTimeRun(gBare, chunk)
			}
			bareRounds = append(bareRounds, b)
			instRounds = append(instRounds, i)
			ratios = append(ratios, i/b)
		}
		bare, inst = median(bareRounds), median(instRounds)
		overhead = median(ratios) - 1
		if overhead < budget {
			break
		}
	}
	return bare, inst, overhead
}

// TestObsDrainedOverheadBudget is the drained sibling of
// TestObsOverheadBudget: a GPU instrumented the way a ledger-armed
// session instruments it (experiments.Options.Instrument with a Ledger
// and no Hub), whose monitor drains the ledger's series counters every
// 2048 cycles, must stay within drainedBudgetFrac of the same GPU left
// uninstrumented. The measurement is written to BENCH_obs.json under
// WS_BENCH=1.
func TestObsDrainedOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if assert.Enabled {
		t.Skip("overhead budget applies to the assert-off build")
	}
	const (
		rounds            = 7
		chunk             = int64(10_000)
		drainedBudgetFrac = 0.05
	)
	led, err := runlog.Open(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Quick()
	o.Ledger = led
	newGPU := func(instrumented bool) *gpu.GPU {
		g := gpu.New(o.Cfg, policy.FCFS{})
		if instrumented {
			o.Instrument(g)
		}
		g.AddKernel(kernels.ByAbbr("MM"), 0)
		g.RunCycles(1000)
		return g
	}

	bare, inst, overhead := pairedOverhead(newGPU, rounds, chunk, drainedBudgetFrac)
	clamped := max(overhead, 0)
	mergeBenchJSON(t, "BENCH_obs.json", map[string]any{
		"drained_bare_ns_per_cycle":         bare,
		"drained_instrumented_ns_per_cycle": inst,
		"drained_overhead_frac":             clamped,
		"drained_overhead_frac_raw":         overhead,
		"drained_budget_frac":               drainedBudgetFrac,
	})
	t.Logf("bare %.1f ns/cycle, ledger-drained %.1f ns/cycle, overhead %.2f%%", bare, inst, overhead*100)
	if overhead >= drainedBudgetFrac {
		t.Errorf("drained ledger monitoring overhead %.2f%% exceeds the %.0f%% budget",
			overhead*100, drainedBudgetFrac*100)
	}
}

// TestSimassertOverhead records the cost of the build-tag-gated runtime
// invariants in BENCH_obs.json. Run it under both build configurations to
// populate both sides:
//
//	WS_BENCH=1 go test -run TestSimassertOverhead .
//	WS_BENCH=1 go test -tags simassert -run TestSimassertOverhead .
//
// The assert-off number should match bare_ns_per_cycle (the guards compile
// to `if false { ... }` and are eliminated); the assert-on number shows the
// real price of per-cycle conservation and bounds checking.
func TestSimassertOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		rounds = 7
		chunk  = int64(10_000)
	)
	g := gpu.New(config.Baseline(), policy.FCFS{})
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.RunCycles(1000)

	vs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		vs = append(vs, obsTimeRun(g, chunk))
	}
	ns := median(vs)

	key := "simassert_off_ns_per_cycle"
	if assert.Enabled {
		key = "simassert_on_ns_per_cycle"
	}
	mergeBenchJSON(t, "BENCH_obs.json", map[string]any{key: ns})
	t.Logf("%s = %.1f ns/cycle (assert.Enabled=%v)", key, ns, assert.Enabled)
}

// histSink defeats dead-code elimination in timeHistObserve and
// BenchmarkHistObserve.
var histSink uint64

// timeHistObserve returns the cost of one obs.Hist.Observe in nanoseconds
// (min of 3 rounds of 1<<22 observes over a spread of bucket magnitudes).
func timeHistObserve() float64 {
	const n = 1 << 22
	best := -1.0
	for r := 0; r < 3; r++ {
		var h obs.Hist
		start := time.Now()
		for i := int64(0); i < n; i++ {
			h.Observe(i & 0xfffff)
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		histSink += h.Count()
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best
}

// BenchmarkHistObserve prices the always-on latency histograms: one
// Observe is a bit-length bucket index and two adds.
func BenchmarkHistObserve(b *testing.B) {
	var h obs.Hist
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xfffff)
	}
	histSink += h.Count()
}

// sampleSink defeats dead-code elimination in the span-sampling timers.
var sampleSink int

// timeSpanSample returns the cost of one span.Sampler.Sample decision in
// nanoseconds (min of 3 rounds of 1<<22 calls over varying line/cycle).
// This is the price every L1 miss pays at the default period; only the
// 1-in-64 sampled requests pay the recording path on top.
func timeSpanSample() float64 {
	const n = 1 << 22
	s := span.Sampler{Period: span.DefaultPeriod}
	best := -1.0
	for r := 0; r < 3; r++ {
		hits := 0
		start := time.Now()
		for i := int64(0); i < n; i++ {
			if s.Sample(uint64(i)<<7, i, int(i&7)) {
				hits++
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		sampleSink += hits
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best
}

// BenchmarkSpanSample prices the per-request sampling decision: one
// splitmix-style hash and a modulo.
func BenchmarkSpanSample(b *testing.B) {
	s := span.Sampler{Period: span.DefaultPeriod}
	hits := 0
	for i := 0; i < b.N; i++ {
		if s.Sample(uint64(i)<<7, int64(i), i&7) {
			hits++
		}
	}
	sampleSink += hits
}

// benchFingerprint identifies the machine and measurement methodology a
// BENCH_obs.json baseline was recorded under. The 15% regression budget
// only means something against a baseline from the same machine measured
// the same way (per-cycle cost varies ~3× across the workload's phases,
// so the sampled window is part of the methodology); on any mismatch the
// test rebases silently instead of comparing apples to oranges.
func benchFingerprint(rounds int, chunk int64) string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s/%d-cores/%dx%d-cycles", host, runtime.NumCPU(), rounds, chunk)
}

// TestEngineProfileBudget is the perf-regression rig: it measures engine
// ns/cycle (median of interleaved rounds) plus the profiler's per-phase
// ns/cycle split, merge-writes them into BENCH_obs.json (under
// WS_BENCH=1), and fails when
// throughput regressed more than 15% against the committed same-machine
// baseline. Every speed PR (SoA warp state, request arenas, fast-forward)
// lands against this number.
func TestEngineProfileBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if assert.Enabled {
		t.Skip("regression budget applies to the assert-off build")
	}
	if raceEnabled {
		t.Skip("regression budget applies to the race-detector-off build")
	}
	const (
		rounds = 7
		chunk  = int64(10_000)
		budget = 0.15
	)

	// Two baselines gate this test. The legacy one is the single
	// ns_per_cycle in the committed BENCH_obs.json; the trajectory one is
	// the median of the last trajectoryTailK same-fingerprint points in
	// BENCH_trajectory.jsonl, so one historically noisy run cannot move
	// the gate. Both are honored only under a matching fingerprint.
	const (
		trajectoryPath  = "BENCH_trajectory.jsonl"
		trajectoryTailK = 5
	)
	prior := map[string]any{}
	if data, err := os.ReadFile("BENCH_obs.json"); err == nil {
		_ = json.Unmarshal(data, &prior)
	}
	baseline, _ := prior["ns_per_cycle"].(float64)
	priorFP, _ := prior["bench_fingerprint"].(string)
	fp := benchFingerprint(rounds, chunk)
	comparable := baseline > 0 && priorFP == fp

	trajPts, err := runlog.ReadTrajectory(trajectoryPath)
	if err != nil {
		t.Fatal(err)
	}
	trajBase, trajN := runlog.TrajectoryBaseline(trajPts, fp, trajectoryTailK)
	trajComparable := trajN > 0 && trajBase > 0

	measure := func() (float64, gpu.Profile) {
		g := gpu.New(config.Baseline(), policy.FCFS{})
		g.Prof = prof.New(0)
		g.AddKernel(kernels.ByAbbr("MM"), 0)
		g.RunCycles(1000)
		vs := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			vs = append(vs, obsTimeRun(g, chunk))
		}
		return median(vs), g.Profile()
	}
	regressed := func(ns float64) bool {
		return (comparable && ns/baseline-1 > budget) ||
			(trajComparable && ns/trajBase-1 > budget)
	}

	ns, gp := measure()
	// Re-measure before declaring a regression, keeping the fastest
	// attempt: noise only ever inflates a timing, so the minimum is the
	// least-noisy estimate and a single slow stretch must not fail CI.
	for attempt := 0; attempt < 2 && regressed(ns); attempt++ {
		ns2, gp2 := measure()
		if ns2 < ns {
			ns, gp = ns2, gp2
		}
	}

	phases := map[string]float64{}
	if gp.Phases != nil {
		for _, pc := range gp.Phases.Phases {
			phases[pc.Phase] = pc.NsPerCycle
		}
	}

	if regressed(ns) {
		// Keep the committed baselines intact (no merge, no trajectory
		// append) so the regression stays visible on re-runs instead of
		// ratcheting itself away.
		switch {
		case comparable && ns/baseline-1 > budget:
			t.Fatalf("engine throughput regressed: %.1f ns/cycle vs baseline %.1f (%.1f%% > %.0f%% budget)",
				ns, baseline, (ns/baseline-1)*100, budget*100)
		default:
			t.Fatalf("engine throughput regressed: %.1f ns/cycle vs trajectory median %.1f over last %d points (%.1f%% > %.0f%% budget)",
				ns, trajBase, trajN, (ns/trajBase-1)*100, budget*100)
		}
	}

	// Price the state-digest walk. The plain measurement above *is* the
	// digests-off cost — DigestEvery stays 0 there, so its only hot-path
	// trace is one predicted branch in Step — which keeps "off by default
	// is free" continuously enforced by the 15% budget itself. Here we arm
	// the flight recorder at every=1 to measure the walk's full per-record
	// cost, then amortize it to the default period a production arming
	// pays. The amortized figure must stay a small fraction of engine
	// ns/cycle or arming the recorder would itself distort the runs it is
	// meant to audit.
	const digestBudgetFrac = 0.10
	measureDigest := func() float64 {
		g := gpu.New(config.Baseline(), policy.FCFS{})
		g.AddKernel(kernels.ByAbbr("MM"), 0)
		g.RunCycles(1000)
		g.ArmFlightRecorder(digest.DefaultFlightDepth, 1, "")
		vs := make([]float64, 0, rounds)
		for r := 0; r < rounds; r++ {
			vs = append(vs, obsTimeRun(g, chunk))
		}
		perRecord := median(vs) - ns
		if perRecord < 0 {
			perRecord = 0 // noise floor: digesting cannot be a speedup
		}
		return perRecord
	}
	digestPerRecord := measureDigest()
	digestAmortized := digestPerRecord / float64(gpu.DefaultDigestEvery)
	for attempt := 0; attempt < 2 && digestAmortized > digestBudgetFrac*ns; attempt++ {
		digestPerRecord = measureDigest()
		digestAmortized = digestPerRecord / float64(gpu.DefaultDigestEvery)
	}
	if digestAmortized > digestBudgetFrac*ns {
		// Fatal before the merge, like the throughput regression: keep
		// the committed numbers intact so the failure stays visible.
		t.Fatalf("digest walk too expensive: %.1f ns/record = %.2f ns/cycle amortized at every=%d, over %.0f%% of engine %.1f ns/cycle",
			digestPerRecord, digestAmortized, gpu.DefaultDigestEvery, digestBudgetFrac*100, ns)
	}

	mergeBenchJSON(t, "BENCH_obs.json", map[string]any{
		"ns_per_cycle":                ns,
		"phase_ns_per_cycle":          phases,
		"digest_ns_per_record":        digestPerRecord,
		"digest_ns_per_cycle":         digestAmortized,
		"digest_budget_frac":          digestBudgetFrac,
		"regression_budget_frac":      budget,
		"bench_fingerprint":           fp,
		"fast_forward_skippable_frac": gp.FFSkippableFrac,
		"sched_fastpath_frac":         gp.SchedFastFrac,
	})
	// One fingerprint-keyed point per passing WS_BENCH=1 run extends the
	// cross-PR performance trajectory (charted by wsplot -trajectory; the
	// tail median becomes the next run's gate).
	if benchWrites() {
		if err := runlog.AppendTrajectory(trajectoryPath, runlog.TrajectoryPoint{
			Fingerprint:       fp,
			UnixNs:            time.Now().UnixNano(),
			NsPerCycle:        ns,
			PhaseNsPerCycle:   phases,
			DigestNsPerRecord: digestPerRecord,
			FFSkippableFrac:   gp.FFSkippableFrac,
			SchedFastFrac:     gp.SchedFastFrac,
		}, 0); err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case trajComparable:
		t.Logf("engine %.1f ns/cycle vs trajectory median %.1f over %d points (%+.1f%%, budget %.0f%%)",
			ns, trajBase, trajN, (ns/trajBase-1)*100, budget*100)
	case comparable:
		t.Logf("engine %.1f ns/cycle vs baseline %.1f (%+.1f%%, budget %.0f%%)",
			ns, baseline, (ns/baseline-1)*100, budget*100)
	default:
		t.Logf("engine %.1f ns/cycle; baseline rebased for %s", ns, fp)
	}
}

// BenchmarkPairSweepSerial runs a four-pair Figure 6 sweep on one worker.
func BenchmarkPairSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Parallelism = 1
		s := experiments.NewSession(o)
		if len(experiments.Figure6From(s, experiments.Pairs()[:4], false)) != 4 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkPairSweepParallel is BenchmarkPairSweepSerial on the full
// GOMAXPROCS worker pool; the ratio of the two is the parallel harness's
// speedup on this machine.
func BenchmarkPairSweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Parallelism = 0
		s := experiments.NewSession(o)
		if len(experiments.Figure6From(s, experiments.Pairs()[:4], false)) != 4 {
			b.Fatal("sweep incomplete")
		}
	}
}

// TestParallelSpeedup measures the parallel experiment runner against the
// serial harness on a pair sweep, checks the two produce byte-identical
// CSV output, and records the wall-clock comparison in BENCH_parallel.json
// under WS_BENCH=1.
// The >= 2x speedup assertion only applies on machines with at least four
// cores; single-core CI still verifies determinism and records the numbers.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ws := experiments.Pairs()[:6]
	sweep := func(parallelism int) ([]byte, float64) {
		o := benchOptions()
		o.Parallelism = parallelism
		s := experiments.NewSession(o)
		start := time.Now()
		rows := experiments.Figure6From(s, ws, false)
		elapsed := time.Since(start).Seconds()
		var buf bytes.Buffer
		if err := experiments.WriteFigure6CSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), elapsed
	}

	serialCSV, serialS := sweep(1)
	parallelCSV, parallelS := sweep(0)

	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Errorf("parallel sweep CSV differs from serial:\nserial:\n%s\nparallel:\n%s", serialCSV, parallelCSV)
	}

	cores := runtime.GOMAXPROCS(0)
	speedup := 0.0
	if parallelS > 0 {
		speedup = serialS / parallelS
	}
	out := map[string]any{
		"cores":      cores,
		"workloads":  len(ws),
		"serial_s":   serialS,
		"parallel_s": parallelS,
		"speedup":    speedup,
	}
	if benchWrites() {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := runlog.AtomicWriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d-pair sweep on %d cores: serial %.2fs, parallel %.2fs, speedup %.2fx",
		len(ws), cores, serialS, parallelS, speedup)

	if cores >= 4 && speedup < 2 {
		t.Errorf("speedup %.2fx on %d cores, want >= 2x", speedup, cores)
	}
}

// BenchmarkStreamNext measures synthetic instruction generation.
func BenchmarkStreamNext(b *testing.B) {
	spec := kernels.ByAbbr("BLK")
	st := kernels.NewStream(spec, 1<<40, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if st.Done() {
			st = kernels.NewStream(spec, 1<<40, i, 0)
		}
		_ = st.Next()
	}
}
