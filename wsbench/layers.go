package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"warpedslicer/internal/cache"
	"warpedslicer/internal/config"
	"warpedslicer/internal/core"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/dram"
	"warpedslicer/internal/experiments"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/runlog"
	"warpedslicer/internal/sm"
)

// Layer microbenchmark sizes. Each is repeated microReps times and the
// median per-operation figures are reported.
const (
	microReps     = 3
	traceLines    = 1 << 16 // addresses drawn from the workload's warp streams
	streamNexts   = 1 << 18
	snapshots     = 20
	waterfills    = 2000
	ledgerAppends = 60

	// Engine windows: every window starts after engineWarmup cycles, by
	// when the Quick controller (1K warm-up + 2K sample) has installed its
	// partition. Session runs, unlike these windows, start with empty
	// caches, as in the paper's method.
	engineWarmup = 4096
	engineWindow = 8192
	recordEvery  = 512 // series points for the ledger-append record
)

// opCost is a microbenchmark's median cost per operation.
type opCost struct{ ns, bytes, allocs float64 }

// measureOp runs a microbenchmark microReps times. prepare builds fresh
// state untimed and returns the timed body, which reports how many
// operations it performed.
func measureOp(prepare func() func() int) opCost {
	var ns, bytes, allocs []float64
	for r := 0; r < microReps; r++ {
		body := prepare()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		n := float64(body())
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		ns = append(ns, float64(el.Nanoseconds())/n)
		bytes = append(bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/n)
	}
	return opCost{medianOf(ns), medianOf(bytes), medianOf(allocs)}
}

// put records a microbenchmark under its time, bytes and allocations
// metric names; timeScale converts ns to the time metric's unit.
func put(m map[string]float64, c opCost, timeName string, timeScale float64, bytesName, allocsName string) {
	m[timeName] = c.ns / timeScale
	m[bytesName] = c.bytes
	m[allocsName] = c.allocs
}

// measureLayers times each layer's public functions on inputs generated
// from the workload's own kernels and pairs, and returns the per-layer
// metrics. scratch is a directory the ledger benchmarks may write to.
func measureLayers(w workload, pairs []experiments.Workload, scratch string) (map[string]float64, error) {
	m := map[string]float64{}
	cfg := experiments.Quick().Cfg
	var specs []*kernels.Spec
	for _, abbr := range w.traceKernels {
		specs = append(specs, kernels.ByAbbr(abbr))
	}
	addrs := addressTrace(specs, traceLines)

	put(m, measureOp(func() func() int { return streamNext(specs, streamNexts) }),
		"kernels.stream_next_ns", 1, "kernels.stream_next_bytes", "kernels.stream_next_allocs")
	put(m, measureOp(func() func() int { return cacheAccess(cfg, addrs) }),
		"cache.access_ns", 1, "cache.access_bytes", "cache.access_allocs")
	put(m, measureOp(func() func() int { return dramTick(cfg, addrs) }),
		"dram.tick_ns", 1, "dram.tick_bytes", "dram.tick_allocs")
	put(m, measureOp(func() func() int { return memTick(cfg, addrs) }),
		"mem.tick_ns", 1, "mem.tick_bytes", "mem.allocs_per_tick")

	var led *runlog.Ledger
	if w.ledger {
		var err error
		if led, err = runlog.Open(filepath.Join(scratch, "engine-ledger")); err != nil {
			return nil, err
		}
	}
	eng, err := engineWindows(pairs, led)
	if err != nil {
		return nil, err
	}
	for k, v := range eng.metrics {
		m[k] = v
	}

	reg := obs.NewRegistry()
	eng.last.Register(reg)
	put(m, measureOp(func() func() int {
		return func() int {
			for i := 0; i < snapshots; i++ {
				reg.Snapshot()
			}
			return snapshots
		}
	}), "obs.snapshot_us", 1e3, "obs.snapshot_bytes", "obs.snapshot_allocs")

	total := smTotal(cfg)
	var fillErr error
	put(m, measureOp(func() func() int {
		return func() int {
			for i := 0; i < waterfills; i++ {
				if _, err := core.WaterFill(eng.demands[i%len(eng.demands)], total); err != nil {
					fillErr = err
				}
			}
			return waterfills
		}
	}), "core.waterfill_ns", 1, "core.waterfill_bytes", "core.waterfill_allocs")
	if fillErr != nil {
		return nil, fmt.Errorf("water-filling: %w", fillErr)
	}

	appendLed, err := runlog.Open(filepath.Join(scratch, "append-ledger"))
	if err != nil {
		return nil, err
	}
	seq := uint64(0)
	var appendErr error
	put(m, measureOp(func() func() int {
		return func() int {
			for i := 0; i < ledgerAppends; i++ {
				seq++
				r := *eng.record
				r.Inputs.Targets = []uint64{seq} // a new key: Append dedupes repeats
				if _, err := appendLed.Append(&r, 0, 0); err != nil {
					appendErr = err
				}
			}
			return ledgerAppends
		}
	}), "runlog.append_us", 1e3, "runlog.append_bytes", "runlog.append_allocs")
	if appendErr != nil {
		return nil, fmt.Errorf("ledger append: %w", appendErr)
	}
	return m, nil
}

// addressTrace interleaves the warp streams of a few CTAs of each kernel
// and returns the first n global-memory line addresses they touch.
func addressTrace(specs []*kernels.Spec, n int) []uint64 {
	streams := newStreams(specs)
	out := make([]uint64, 0, n)
	for len(out) < n {
		progressed := false
		for _, st := range streams {
			if st.Done() {
				continue
			}
			progressed = true
			in := st.Next()
			if !in.Kind.IsGlobal() {
				continue
			}
			for l := uint64(0); l < uint64(in.Lines) && len(out) < n; l++ {
				out = append(out, in.Addr+l*kernels.LineBytes)
			}
		}
		if !progressed {
			streams = newStreams(specs)
		}
	}
	return out
}

// newStreams builds the warp streams of the first four CTAs of each
// kernel, at the base addresses gpu.AddKernel would give them.
func newStreams(specs []*kernels.Spec) []*kernels.Stream {
	var out []*kernels.Stream
	for i, spec := range specs {
		for cta := 0; cta < 4; cta++ {
			for warp := 0; warp < spec.WarpsPerCTA(32); warp++ {
				out = append(out, kernels.NewStream(spec, uint64(i+1)<<40, cta, warp))
			}
		}
	}
	return out
}

var sinkInstrs int

// streamNext returns a body calling kernels.Stream.Next n times round
// robin over the kernels' warps, restarting any warp that exits.
func streamNext(specs []*kernels.Spec, n int) func() int {
	streams := newStreams(specs)
	return func() int {
		for i := 0; i < n; i++ {
			k := i % len(streams)
			if streams[k].Done() {
				streams[k] = kernels.NewStream(streams[k].Spec(), uint64(k+1)<<40, i, 0)
			}
			if streams[k].Next().Kind.IsGlobal() {
				sinkInstrs++
			}
		}
		return n
	}
}

// cacheAccess returns a body replaying the trace through an L1-geometry
// cache, filling each miss at once so MSHRs never run out.
func cacheAccess(cfg config.GPU, addrs []uint64) func() int {
	c := cache.New(cfg.L1.SizeBytes, cfg.L1.LineBytes, cfg.L1.Assoc, cfg.L1.MSHRs)
	return func() int {
		for _, a := range addrs {
			if c.Access(a, false) == cache.Miss {
				c.Fill(a)
			}
		}
		return len(addrs)
	}
}

// dramConfig is the channel configuration mem.New builds.
func dramConfig(cfg config.GPU) dram.Config {
	return dram.Config{
		Banks: cfg.Memory.BanksPerChannel, RowBytes: 2048,
		TCL: cfg.Memory.TCL, TRP: cfg.Memory.TRP, TRCD: cfg.Memory.TRCD, TRRD: cfg.Memory.TRRD,
		BurstCycles: cfg.Memory.BurstCycles, QueueDepth: cfg.Memory.QueueDepth,
	}
}

// dramTick returns a body feeding one channel the trace, one Enqueue
// attempt per memory cycle, until every request is served; an operation
// is one Enqueue+Tick cycle.
func dramTick(cfg config.GPU, addrs []uint64) func() int {
	ch := dram.NewChannel(dramConfig(cfg))
	return func() int {
		next, served := 0, 0
		var now int64
		for served < len(addrs) {
			if next < len(addrs) && ch.Enqueue(memreq.Request{LineAddr: addrs[next], Issued: now}, now) {
				next++
			}
			served += len(ch.Tick(now))
			now++
		}
		return int(now)
	}
}

// memTick returns a body driving the whole memory subsystem with the
// trace from rotating SMs, up to two Submit attempts per core cycle while
// fewer reads are outstanding than the DRAM scheduling queues hold (more
// would only pile up in the retry queues), until it drains; an operation
// is one Submit+Tick core cycle.
func memTick(cfg config.GPU, addrs []uint64) func() int {
	m := mem.New(cfg)
	maxOutstanding := cfg.Memory.Channels * cfg.Memory.QueueDepth
	return func() int {
		next, replied := 0, 0
		var now int64
		for next < len(addrs) || !m.Drained() {
			for k := 0; k < 2 && next < len(addrs) && next-replied < maxOutstanding; k++ {
				if !m.Submit(memreq.Request{LineAddr: addrs[next], SM: next % cfg.NumSMs, Issued: now}, now) {
					break
				}
				next++
			}
			replied += len(m.Tick(now))
			now++
		}
		return int(now)
	}
}

func smTotal(cfg config.GPU) sm.Quota {
	return sm.Quota{Regs: cfg.SM.Registers, Shm: cfg.SM.SharedMemBytes, Threads: cfg.SM.MaxThreads, CTAs: cfg.SM.MaxCTAs}
}

// timedDispatcher wraps the Warped-Slicer controller to time its
// Setup/Fill/Tick calls from outside the core package.
type timedDispatcher struct {
	c     *core.Controller
	on    bool
	ns    int64
	calls int64
}

func (t *timedDispatcher) Setup(g *gpu.GPU) { t.c.Setup(g) }

func (t *timedDispatcher) Fill(g *gpu.GPU) {
	if !t.on {
		t.c.Fill(g)
		return
	}
	t0 := time.Now()
	t.c.Fill(g)
	t.ns += time.Since(t0).Nanoseconds()
	t.calls++
}

func (t *timedDispatcher) Tick(g *gpu.GPU) {
	if !t.on {
		t.c.Tick(g)
		return
	}
	t0 := time.Now()
	t.c.Tick(g)
	t.ns += time.Since(t0).Nanoseconds()
	t.calls++
}

func (t *timedDispatcher) OnKernelArrival(g *gpu.GPU, k *gpu.Kernel) { t.c.OnKernelArrival(g, k) }

// clockOverheadNs is what timedDispatcher measures around an empty call:
// the part of a time.Now/time.Since pair that lands inside the timed
// interval. It is subtracted once per timed call.
func clockOverheadNs() float64 {
	vs := make([]float64, microReps)
	for r := range vs {
		const n = 1 << 16
		var sum int64
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t).Nanoseconds()
		}
		vs[r] = float64(sum) / n
	}
	return medianOf(vs)
}

// engineResult is what the fixed-window engine runs yield.
type engineResult struct {
	metrics map[string]float64
	// demands are the controllers' water-filling inputs, one set per pair.
	demands [][]core.Demand
	// last is the final pair's warmed 16-SM GPU (the snapshot benchmark's
	// subject); record is a run record built from its run.
	last   *gpu.GPU
	record *runlog.RunRecord
}

// engineWindows runs every drawn pair under the dynamic policy, built as
// the session builds it but with the controller behind timedDispatcher
// and with the workload's sinks (Options.Instrument). After the warm-up,
// window A runs unprofiled and gives gpu.* (ns, bytes and allocations per
// cycle, the fast-forward meter) and the DRAM row-hit fraction; window B
// runs with the prof profiler at its default period and gives the engine
// phase split and the controller's dispatch cost.
func engineWindows(pairs []experiments.Workload, led *runlog.Ledger) (engineResult, error) {
	o := experiments.Quick()
	o.Ledger = led
	res := engineResult{metrics: map[string]float64{}}
	var nsA, bytesA, allocsA, ffA, dispatchNs float64
	var rowHits, rowTotal float64
	phaseNs := map[string]float64{}
	var cyclesB float64
	clockOverhead := clockOverheadNs()
	for _, pair := range pairs {
		c := core.NewController()
		c.WarmupCycles, c.SampleCycles, c.AlgorithmDelay = o.Warmup, o.Sample, o.AlgDelay
		c.UseScaledIPC, c.SymmetricScaling = o.UseScaledIPC, o.SymmetricScaling
		td := &timedDispatcher{c: c}
		g := gpu.New(o.Cfg, td)
		g.SetSchedulers(o.Sched)
		o.Instrument(g)
		for _, spec := range pair.Specs {
			g.AddKernel(spec, 0)
		}
		reg := obs.NewRegistry()
		g.Register(reg)
		rec := runlog.NewRecorder(runlog.DefaultSeries(), runlog.DefaultMaxPoints)
		for g.Now() < engineWarmup {
			g.RunCycles(recordEvery)
			rec.Observe(g.Now(), reg.Snapshot())
		}

		snap0 := reg.Snapshot()
		ff0 := g.Profile().FFSkippableCycles
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		g.RunCycles(engineWindow)
		nsA += float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&ms1)
		bytesA += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		allocsA += float64(ms1.Mallocs - ms0.Mallocs)
		ffA += float64(g.Profile().FFSkippableCycles - ff0)
		snap1 := reg.Snapshot()
		for _, smp := range snap1.Samples {
			switch {
			case strings.HasPrefix(smp.Name, "ws_dram_row_hits_total"):
				rowHits += snap1.Delta(snap0, smp.Name)
				rowTotal += snap1.Delta(snap0, smp.Name)
			case strings.HasPrefix(smp.Name, "ws_dram_row_misses_total"):
				rowTotal += snap1.Delta(snap0, smp.Name)
			}
		}

		g.Prof = prof.New(prof.DefaultPeriod)
		td.on = true
		g.RunCycles(engineWindow)
		td.on = false
		dispatchNs += float64(td.ns) - clockOverhead*float64(td.calls)
		sum := g.Prof.Summary()
		for _, pc := range sum.Phases {
			phaseNs[pc.Phase] += pc.NsPerCycle * float64(sum.Cycles)
		}
		cyclesB += float64(sum.Cycles)

		// Only inputs the partitioner accepts are timed: a curve whose
		// kernel never issued in its sample window is rejected, and the
		// controller falls back to spatial multitasking.
		if d := demandsOf(c, pair.Specs); d != nil {
			if _, err := core.WaterFill(d, smTotal(o.Cfg)); err == nil {
				res.demands = append(res.demands, d)
			}
		}
		res.last = g
		res.record = windowRecord(o, pair, g, rec)
	}
	if len(res.demands) == 0 {
		return res, fmt.Errorf("engine windows: no pair gave the partitioner a valid input")
	}
	cycles := float64(len(pairs) * engineWindow)
	m := res.metrics
	m["gpu.ns_per_cycle"] = nsA / cycles
	m["gpu.bytes_per_cycle"] = bytesA / cycles
	m["gpu.allocs_per_cycle"] = allocsA / cycles
	m["gpu.ff_skippable_frac"] = ffA / cycles
	if rowTotal > 0 {
		m["dram.row_hit_frac"] = rowHits / rowTotal
	}
	for metric, phase := range map[string]string{
		"sm.issue_ns_per_cycle": "issue", "sm.execute_ns_per_cycle": "execute", "sm.l1_ns_per_cycle": "l1",
		"mem.icnt_ns_per_cycle": "icnt", "mem.l2_ns_per_cycle": "l2", "dram.ns_per_cycle": "dram",
		"obs.drain_ns_per_cycle": "obs_drain",
	} {
		m[metric] = phaseNs[phase] / cyclesB
	}
	m["core.dispatch_ns_per_cycle"] = dispatchNs / cyclesB
	return res, nil
}

// demandsOf rebuilds the water-filling input the controller decided on.
func demandsOf(c *core.Controller, specs []*kernels.Spec) []core.Demand {
	if len(c.Curves) != len(specs) {
		return nil
	}
	out := make([]core.Demand, len(specs))
	for i, spec := range specs {
		out[i] = core.Demand{
			Perf: c.Curves[i],
			Need: sm.Quota{Regs: spec.RegsPerCTA(), Shm: spec.SharedMemPerTA, Threads: spec.BlockDim, CTAs: 1},
		}
	}
	return out
}

// windowRecord is a run record shaped like the ones the session appends,
// built from an engine window's GPU and its recorded series.
func windowRecord(o experiments.Options, pair experiments.Workload, g *gpu.GPU, rec *runlog.Recorder) *runlog.RunRecord {
	in := runlog.Inputs{
		Schema: runlog.SchemaVersion, DigestVersion: digest.Version,
		Kind: "window", Workload: pair.Name(), Policy: "dynamic", Sched: o.Sched.String(),
		Windows: runlog.Windows{
			Isolation: o.IsolationCycles, MaxCoRun: o.MaxCoRunCycles, Warmup: o.Warmup, Sample: o.Sample,
			AlgDelay: o.AlgDelay, OracleTargetFrac: o.OracleTargetFrac, UseScaledIPC: o.UseScaledIPC,
		},
		Config: o.Cfg,
	}
	for _, spec := range pair.Specs {
		in.Kernels = append(in.Kernels, spec.Abbr)
	}
	p := g.Profile()
	agg := g.AggregateSM()
	return &runlog.RunRecord{
		Inputs: in,
		Cycles: g.Now(),
		Metrics: []runlog.Metric{
			{Name: "issued_frac", Value: float64(agg.Issued) / float64(agg.Slots)},
			{Name: "stall_mem_frac", Value: float64(agg.StallMem) / float64(agg.Slots)},
			{Name: "sched_fastpath_frac", Value: p.SchedFastFrac},
			{Name: "fast_forward_skippable_frac", Value: p.FFSkippableFrac},
		},
		Series: rec.Series(),
	}
}

// removeAll deletes a scratch directory, reporting (not failing on) an
// error: a leftover directory does not change any measurement.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "wsbench:", err)
	}
}
