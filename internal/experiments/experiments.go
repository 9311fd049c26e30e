// Package experiments regenerates every table and figure of the paper's
// evaluation (§II methodology, §V results). Each experiment is a function
// on a Session, which caches isolation runs so the paper's run-to-target
// methodology (record each kernel's instruction count alone, then co-run
// until all targets are met) is applied consistently.
//
// Absolute cycle counts are scaled down from the paper's 2M-cycle windows
// (see DESIGN.md); every window is configurable through Options and the
// Figure 10 sensitivity experiment sweeps them.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"warpedslicer/internal/config"
	"warpedslicer/internal/core"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/metrics"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/runlog"
	"warpedslicer/internal/sm"
	"warpedslicer/internal/span"
	"warpedslicer/internal/trace"
)

// Options parameterizes a Session.
type Options struct {
	Cfg   config.GPU
	Sched sm.SchedulerKind
	// IsolationCycles is the window used to record each kernel's
	// instruction target (the paper used 2M cycles).
	IsolationCycles int64
	// MaxCoRunCycles bounds any multiprogrammed run.
	MaxCoRunCycles int64
	// OracleTargetFrac scales down the instruction targets used during the
	// oracle's exhaustive CTA-combination search (the winner is re-run at
	// full targets).
	OracleTargetFrac float64
	// Controller windows (paper: 20K warm-up, 5K sample, no delay).
	Warmup, Sample, AlgDelay int64
	UseScaledIPC             bool
	// SymmetricScaling selects the literal (two-sided) Eq. 4 correction;
	// see core.Controller.SymmetricScaling.
	SymmetricScaling bool
	// Events, when non-nil, receives the session's structured run log:
	// one isolation_done / corun_done summary per completed run, plus the
	// dynamic controller's full decision trail (profiling phases, scaled-IPC
	// curves, water-filling partitions) and kernel lifecycle events.
	Events *obs.EventLog
	// Hub, when non-nil, receives live registry snapshots every
	// monitorEvery cycles from each running simulation, for serving over
	// obs.StartServer.
	Hub *obs.Hub
	// Ledger, when non-nil, receives one content-addressed RunRecord per
	// completed run (isolation references, co-runs, fixed windows, digest,
	// engine-profile, Figure 5 and timeline runs): headline metrics plus a
	// windowed counter series recorded on the Monitor cadence. The series
	// reads its counters straight from the device aggregate; registry
	// snapshots are taken only for a Hub (or a black box). Identical
	// inputs dedupe to one entry; records are byte-identical at any
	// Parallelism. When DigestEvery is also set, each run's digest trail is
	// stored next to its record for `wslicer runs diff` bisection.
	Ledger *runlog.Ledger
	// Parallelism sizes the worker pool that fans independent simulations
	// (isolation references, the oracle search, the figure sweeps) across
	// cores. 0 means GOMAXPROCS; 1 forces serial execution. Results are
	// collected by index, so any setting produces byte-identical CSVs,
	// figures and golden files.
	Parallelism int
	// ProfPeriod, when positive, attaches an engine self-profiler to every
	// GPU the session builds, sampling one cycle in ProfPeriod for
	// wall-clock phase accounting (see internal/prof). Zero disables
	// profiling; the deterministic opportunity counters are collected
	// either way.
	ProfPeriod int64
	// DigestEvery, when positive, arms the state-digest audit trail on
	// every GPU the session builds: a chained whole-device digest is
	// recorded into a flight-recorder ring every DigestEvery cycles (see
	// internal/digest). Zero leaves digesting off the hot path entirely.
	DigestEvery int64
	// BlackBoxPath, when set (and DigestEvery is positive), is where a
	// panicking simulation — including simassert violations — dumps its
	// flight-recorder black box.
	BlackBoxPath string
}

// Validate rejects option values that would produce degenerate runs:
// non-positive windows yield zero-cycle simulations whose IPC divisions
// emit NaN rows into CSV output. NewSession panics on invalid options;
// the CLI validates its flags up front for a readable error.
func (o Options) Validate() error {
	switch {
	case o.IsolationCycles <= 0:
		return fmt.Errorf("experiments: IsolationCycles = %d, must be positive", o.IsolationCycles)
	case o.MaxCoRunCycles <= 0:
		return fmt.Errorf("experiments: MaxCoRunCycles = %d, must be positive", o.MaxCoRunCycles)
	case o.Sample <= 0:
		return fmt.Errorf("experiments: Sample = %d, must be positive", o.Sample)
	case o.Warmup < 0:
		return fmt.Errorf("experiments: Warmup = %d, must be non-negative", o.Warmup)
	case o.AlgDelay < 0:
		return fmt.Errorf("experiments: AlgDelay = %d, must be non-negative", o.AlgDelay)
	case o.OracleTargetFrac <= 0 || o.OracleTargetFrac > 1:
		return fmt.Errorf("experiments: OracleTargetFrac = %g, must be in (0, 1]", o.OracleTargetFrac)
	case o.Parallelism < 0:
		return fmt.Errorf("experiments: Parallelism = %d, must be non-negative", o.Parallelism)
	case o.ProfPeriod < 0:
		return fmt.Errorf("experiments: ProfPeriod = %d, must be non-negative", o.ProfPeriod)
	case o.DigestEvery < 0:
		return fmt.Errorf("experiments: DigestEvery = %d, must be non-negative", o.DigestEvery)
	}
	return nil
}

// Defaults returns the standard evaluation options (scaled-down windows).
func Defaults() Options {
	return Options{
		Cfg:              config.Baseline(),
		Sched:            sm.GTO,
		IsolationCycles:  60_000,
		MaxCoRunCycles:   3_000_000,
		OracleTargetFrac: 0.25,
		// The paper's profiling windows: 20K cycles of warm-up, 5K of
		// sampling. At our scaled-down run lengths the one-time profiling
		// phase is proportionally larger than in the paper (a conservative
		// penalty against Warped-Slicer), but curve quality needs the
		// warm-up: cache-sensitive kernels misclassify with less.
		Warmup:       20_000,
		Sample:       5_000,
		UseScaledIPC: true,
	}
}

// Quick returns options small enough for unit tests and benchmarks.
func Quick() Options {
	o := Defaults()
	o.IsolationCycles = 12_000
	o.MaxCoRunCycles = 800_000
	o.Warmup = 1_000
	o.Sample = 2_000
	o.OracleTargetFrac = 0.3
	return o
}

// monitorEvery is the cycle period at which an instrumented GPU feeds the
// ledger's series recorder, read straight from the device aggregate, and
// publishes registry snapshots to the Hub.
const monitorEvery = 2048

// Instrument attaches the session's observability sinks to a freshly built
// GPU: the event log for kernel lifecycle events, the flight recorder,
// and — when a Hub or Ledger is set — a monitor on a fixed cycle period.
// With none configured this is a no-op and the simulation runs with zero
// monitoring cost.
func (o Options) Instrument(g *gpu.GPU) { o.instrument(g, o.Events) }

// instrument is Instrument with an explicit (typically run-scoped) event
// log, so concurrent simulations sharing one session log stay
// attributable. When a Ledger is configured it returns the run's series
// recorder (nil otherwise), which the run-completion path folds into the
// RunRecord.
//
// The registry reads, labels and sorts every series on the device, so it
// is built only for consumers of whole snapshots: at run start for a Hub,
// and on demand for a black box. The recorder keeps a handful of
// label-free device counters and reads them directly.
func (o Options) instrument(g *gpu.GPU, log *obs.EventLog) *runlog.Recorder {
	g.Log = log
	if o.ProfPeriod > 0 {
		//simlint:allow determtaint -- profiler construction: the epoch stamp inside is metering state, not simulator state
		g.Prof = prof.New(o.ProfPeriod)
	}
	if o.DigestEvery > 0 {
		g.ArmFlightRecorder(digest.DefaultFlightDepth, o.DigestEvery, o.BlackBoxPath)
		if o.Ledger != nil && g.Digests == nil {
			// Ledger runs keep the full trail (not just the flight ring)
			// so `runs diff` can hand divergent records to the bisector.
			g.Digests = &digest.Trail{}
		}
	}
	if o.Hub == nil && o.Ledger == nil && o.DigestEvery <= 0 {
		return nil
	}
	var rec *runlog.Recorder
	if o.Ledger != nil {
		rec = runlog.NewRecorder(runlog.DefaultSeries(), runlog.DefaultMaxPoints)
	}
	var reg *obs.Registry
	registry := func() *obs.Registry {
		if reg == nil {
			reg = obs.NewRegistry()
			g.Register(reg)
			rec.Register(reg)
			o.Ledger.Register(reg)
		}
		return reg
	}
	g.ObsSnapshot = func() any { return registry().Snapshot() }
	if o.Hub == nil && rec == nil {
		return nil
	}

	names := runlog.DefaultSeries()
	read, err := g.DeviceCounters(names)
	if err != nil {
		panic(err)
	}
	vals := make([]float64, len(names))
	if o.Hub != nil {
		registry()
	}
	g.MonitorEvery = monitorEvery
	g.Monitor = func(gg *gpu.GPU) {
		if o.Hub != nil {
			o.Hub.Publish(reg.Snapshot())
			o.Hub.PublishSpans(gg.Mem.Spans.Summary())
			o.Hub.PublishProfile(gg.Profile())
		}
		if rec != nil {
			read(vals)
			rec.Record(gg.Now(), vals)
		}
	}
	return rec
}

// Isolation is a cached single-kernel run.
type Isolation struct {
	Spec   *kernels.Spec
	Cycles int64
	// Insts is the thread-instruction count after Cycles (the kernel's
	// co-run target).
	Insts uint64
	IPC   float64
	SM    sm.Stats
	Mem   mem.Stats
	// Spans holds the run's sampled memory-request decomposition (the
	// kernel occupies slot 0, so Spans.PerKernel[0] is its breakdown).
	Spans span.Totals
}

// Session caches isolation runs and occupancy curves for one Options value.
// Both caches are singleflight: under the parallel runner, concurrent
// requests for the same kernel block on the one in-flight run instead of
// duplicating it (the check-then-run gap of a plain map would re-run the
// most expensive simulations).
type Session struct {
	O      Options
	mu     sync.Mutex
	iso    map[string]*isoEntry
	curves map[string]*curveEntry
}

// isoEntry is one singleflight isolation-cache slot.
type isoEntry struct {
	once sync.Once
	res  Isolation
}

// curveEntry is one singleflight occupancy-curve slot.
type curveEntry struct {
	once sync.Once
	res  Curve
}

// NewSession creates a session. It panics on invalid Options (see
// Options.Validate), mirroring gpu.New's handling of invalid configs.
func NewSession(o Options) *Session {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	return &Session{O: o, iso: make(map[string]*isoEntry), curves: make(map[string]*curveEntry)}
}

// greedyFill is the isolation dispatcher (single kernel, fill everything).
type greedyFill struct{}

func (greedyFill) Setup(*gpu.GPU)  {}
func (greedyFill) Fill(g *gpu.GPU) { policy.FillInterleaved(g) }
func (greedyFill) Tick(*gpu.GPU)   {}

// Isolation runs (or returns the cached) single-kernel reference run.
// Concurrent callers for the same kernel share one run (singleflight):
// the first runs, the rest block until its result lands.
func (s *Session) Isolation(spec *kernels.Spec) Isolation {
	s.mu.Lock()
	e, ok := s.iso[spec.Abbr]
	if !ok {
		e = &isoEntry{}
		s.iso[spec.Abbr] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		r, _ := s.simulate(run{kind: "iso", scope: "iso/" + spec.Abbr, policy: "greedy",
			specs: []*kernels.Spec{spec}, window: s.O.IsolationCycles})
		e.res = Isolation{Spec: spec, Cycles: r.Cycles, Insts: r.Insts[0], IPC: r.IPC,
			SM: r.SM, Mem: r.Mem, Spans: r.Spans}
	})
	return e.res
}

// CoRun is the result of one multiprogrammed run.
type CoRun struct {
	Specs  []*kernels.Spec
	Policy string
	// Cycles until every kernel reached its target (== MaxCoRunCycles on
	// timeout).
	Cycles  int64
	Timeout bool
	// Targets and Insts per kernel; FinishCycles when each halted.
	Targets      []uint64
	Insts        []uint64
	FinishCycles []int64
	// IPC is the paper's combined metric: total instructions over total
	// cycles. PerKernelIPC[i] = Insts[i] / FinishCycles[i].
	IPC          float64
	PerKernelIPC []float64
	SM           sm.Stats
	Mem          mem.Stats
	// Spans holds the run's sampled memory-request decomposition, indexed
	// by kernel slot (the figmemdecomp interference attribution source).
	Spans span.Totals
	// Partition/ChoseSpatial are filled for the dynamic policy.
	Partition    []int
	ChoseSpatial bool
}

// dispatcher builds the policy by name. "fixed" requires ctas; log is the
// run-scoped event log a dynamic controller writes its decision trail to.
func (s *Session) dispatcher(name string, ctas []int, log *obs.EventLog) gpu.Dispatcher {
	switch name {
	case "greedy":
		return greedyFill{}
	case "leftover":
		return policy.LeftOver{}
	case "fcfs":
		return policy.FCFS{}
	case "even":
		return policy.Even{}
	case "spatial":
		return policy.Spatial{}
	case "fixed":
		return policy.Fixed{CTAs: ctas}
	case "dynamic":
		c := core.NewController()
		c.WarmupCycles = s.O.Warmup
		c.SampleCycles = s.O.Sample
		c.AlgorithmDelay = s.O.AlgDelay
		c.UseScaledIPC = s.O.UseScaledIPC
		c.SymmetricScaling = s.O.SymmetricScaling
		c.Log = log
		return c
	default:
		panic(fmt.Sprintf("experiments: unknown policy %q", name))
	}
}

// runScope builds the deterministic run identity stamped on every event a
// simulation emits: kind ("corun", "oracle", "window"), policy — with the
// explicit CTA partition when one is fixed — and workload. Being a pure
// function of those identifiers, serial and parallel sessions tag their
// event trails identically.
func runScope(kind, policy string, ctas []int, specs []*kernels.Spec) string {
	var b strings.Builder
	b.WriteString(kind)
	b.WriteByte('/')
	b.WriteString(policy)
	if len(ctas) > 0 {
		b.WriteByte('(')
		for i, n := range ctas {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", n)
		}
		b.WriteByte(')')
	}
	b.WriteByte('/')
	b.WriteString(WorkloadName(specs))
	return b.String()
}

// run is one simulation for simulate: its identity and how it is driven.
// The mode is drive when drive is set, to targets when targets is
// non-nil (bounded by MaxCoRunCycles), and a fixed window of `window`
// cycles otherwise.
type run struct {
	// kind names the run in the ledger ("iso", "corun", "oracle", ...).
	kind string
	// scope is the event-log run scope; empty selects
	// runScope(kind, policy, ctas, specs).
	scope   string
	policy  string
	ctas    []int
	specs   []*kernels.Spec
	targets []uint64
	window  int64
	drive   func(*gpu.GPU)
	// params names drive's own settings in the run's ledger key.
	params map[string]int64
	// trail, when positive, records the run's full digest trail into
	// g.Digests at that period.
	trail int64
}

// simulate is the harness's one run path. It builds and instruments the
// GPU, runs it in r's mode, summarises it as a CoRun, emits the run's
// summary event and records it in the ledger. Per-kernel IPC is taken
// over each kernel's finish cycle when running to targets and over the
// whole run otherwise. The GPU is returned for callers that read more
// than a CoRun carries (the digest trail, the engine profile).
func (s *Session) simulate(r run) (CoRun, *gpu.GPU) {
	scope := r.scope
	if scope == "" {
		scope = runScope(r.kind, r.policy, r.ctas, r.specs)
	}
	log := s.O.Events.WithRun(scope)
	wall0, cpu0 := s.O.Ledger.Now()
	d := s.dispatcher(r.policy, r.ctas, log)
	g := gpu.New(s.O.Cfg, d)
	g.SetSchedulers(s.O.Sched)
	rec := s.O.instrument(g, log)
	for i, spec := range r.specs {
		var target uint64
		if r.targets != nil {
			target = r.targets[i]
		}
		g.AddKernel(spec, target)
	}
	if r.trail > 0 {
		g.DigestEvery = r.trail
		g.Digests = &digest.Trail{}
	}

	cycles := r.window
	switch {
	case r.drive != nil:
		r.drive(g)
		cycles = g.Now()
	case r.targets != nil:
		cycles = g.Run(s.O.MaxCoRunCycles)
	case cycles > 0:
		g.RunCycles(cycles)
	}

	co := CoRun{
		Specs:   r.specs,
		Policy:  r.policy,
		Cycles:  cycles,
		Timeout: r.targets != nil && !g.AllDone(),
		Targets: r.targets,
		SM:      g.AggregateSM(),
		Mem:     g.Mem.Stats(),
		Spans:   g.Mem.Spans.Totals(),
	}
	var total uint64
	for _, k := range g.Kernels {
		insts, fin := g.KernelInsts(k.Slot), cycles
		if r.targets != nil && k.Done {
			fin = k.FinishCycle
		}
		co.Insts = append(co.Insts, insts)
		co.FinishCycles = append(co.FinishCycles, fin)
		co.PerKernelIPC = append(co.PerKernelIPC, metrics.IPC(insts, fin))
		total += insts
	}
	co.IPC = metrics.IPC(total, cycles)
	if c, ok := d.(*core.Controller); ok {
		co.Partition, co.ChoseSpatial = c.Partition, c.ChoseSpatial
	}

	switch {
	case r.kind == "iso":
		log.Emit(cycles, obs.EvIsolationDone, map[string]any{
			"kernel": r.specs[0].Abbr, "insts": co.Insts[0], "ipc": co.IPC,
		})
	case r.targets != nil:
		log.Emit(cycles, obs.EvCoRunDone, map[string]any{
			"policy": r.policy, "workload": WorkloadName(r.specs),
			"ipc": co.IPC, "cycles": cycles, "timeout": co.Timeout,
		})
	}
	s.recordRun(r, co, g, rec, wall0, cpu0)
	return co, g
}

// isoTargets returns each kernel's isolation instruction count, the
// paper's co-run targets, running the references across the worker pool.
func (s *Session) isoTargets(specs []*kernels.Spec) []uint64 {
	targets := make([]uint64, len(specs))
	s.parallelFor(len(specs), func(i int) {
		targets[i] = s.Isolation(specs[i]).Insts
	})
	return targets
}

// CoRunTargets runs specs under the named policy with explicit instruction
// targets.
func (s *Session) CoRunTargets(specs []*kernels.Spec, name string, ctas []int, targets []uint64) CoRun {
	r, _ := s.simulate(run{kind: "corun", policy: name, ctas: ctas, specs: specs, targets: targets})
	return r
}

// RunFixedCycles runs specs under the named policy for exactly `cycles`
// cycles (no instruction targets) and reports the combined IPC. Used for
// occupancy-curve measurement. Non-positive windows report zero IPC
// rather than dividing by the cycle count.
func (s *Session) RunFixedCycles(specs []*kernels.Spec, name string, ctas []int, cycles int64) CoRun {
	r, _ := s.simulate(run{kind: "window", policy: name, ctas: ctas, specs: specs, window: cycles})
	return r
}

// DigestTrail runs specs under the named policy with isolation-derived
// instruction targets, recording a chained whole-GPU digest record every
// `every` cycles (zero selects the default period), and returns the full
// audit trail. The targets route through the session's isolation cache and
// worker pool, so a serial session and a parallel session over equal
// Options must produce byte-identical trails — the invariant the
// first-divergence bisector (internal/divergence) checks.
func (s *Session) DigestTrail(specs []*kernels.Spec, name string, ctas []int, every int64) *digest.Trail {
	if every <= 0 {
		every = gpu.DefaultDigestEvery
	}
	_, g := s.simulate(run{kind: "digest", policy: name, ctas: ctas, specs: specs,
		targets: s.isoTargets(specs), trail: every})
	return g.Digests
}

// Timeline traces a Warped-Slicer co-run of specs window by window for
// `cycles` cycles (or until every kernel's grid finishes). The timeline's
// event log is the run's own scoped view, so its controller events and
// repartition cycle come from this run alone.
func (s *Session) Timeline(specs []*kernels.Spec, window, cycles int64) (*trace.Timeline, CoRun) {
	tl := trace.New(window)
	r, _ := s.simulate(run{kind: "timeline", policy: "dynamic", specs: specs, drive: func(g *gpu.GPU) {
		tl.Events = g.Log
		tl.Run(g, cycles)
	}, params: map[string]int64{"window": window, "cycles": cycles}})
	return tl, r
}

// CoRun runs specs under the named policy using isolation-derived targets
// (the paper's methodology).
func (s *Session) CoRun(specs []*kernels.Spec, name string) CoRun {
	return s.CoRunTargets(specs, name, nil, s.isoTargets(specs))
}

// Oracle exhaustively searches intra-SM CTA partitions (plus spatial
// multitasking) for the best combined IPC, exactly as the paper's oracle.
// The search runs at OracleTargetFrac-scaled targets; the winner is re-run
// at full targets. Candidates are independent simulations, so the search
// fans across the session's worker pool; results are collected by index
// and scanned in enumeration order, preserving the serial tie-breaking
// exactly. ChoseSpatial reports a spatial-multitasking winner, so
// downstream consumers can tell "oracle chose spatial" from "partition
// missing".
func (s *Session) Oracle(specs []*kernels.Spec) CoRun {
	targets := s.isoTargets(specs)
	scaled := make([]uint64, len(specs))
	for i, t := range targets {
		scaled[i] = max(1, uint64(float64(t)*s.O.OracleTargetFrac))
	}

	// Spatial is part of the oracle's search space: it rides the pool as
	// the entry after the last CTA combination.
	combos := s.feasibleCombos(specs)
	results := make([]CoRun, len(combos)+1)
	s.parallelFor(len(results), func(i int) {
		r := run{kind: "oracle", policy: "spatial", specs: specs, targets: scaled}
		if i < len(combos) {
			r.policy, r.ctas = "fixed", combos[i]
		}
		results[i], _ = s.simulate(r)
	})

	best := CoRun{}
	bestCombo := []int(nil)
	for i, combo := range combos {
		if bestCombo == nil || results[i].IPC > best.IPC {
			best, bestCombo = results[i], combo
		}
	}
	final := run{kind: "oracle-final", policy: "fixed", ctas: bestCombo, specs: specs, targets: targets}
	sp := results[len(combos)]
	spatial := bestCombo == nil || sp.IPC > best.IPC
	if spatial {
		final.policy, final.ctas = "spatial", nil
	}
	r, _ := s.simulate(final)
	r.Policy = "oracle"
	r.ChoseSpatial = spatial
	r.Partition = final.ctas
	return r
}

// feasibleCombos enumerates CTA assignments (>= 1 each) that fit the SM.
func (s *Session) feasibleCombos(specs []*kernels.Spec) [][]int {
	cfg := s.O.Cfg.SM
	total := sm.Quota{Regs: cfg.Registers, Shm: cfg.SharedMemBytes, Threads: cfg.MaxThreads, CTAs: cfg.MaxCTAs}
	var out [][]int
	cur := make([]int, len(specs))
	var rec func(i int, used sm.Quota)
	rec = func(i int, used sm.Quota) {
		if i == len(specs) {
			out = append(out, append([]int(nil), cur...))
			return
		}
		spec := specs[i]
		for n := 1; ; n++ {
			nu := sm.Quota{
				Regs:    used.Regs + spec.RegsPerCTA()*n,
				Shm:     used.Shm + spec.SharedMemPerTA*n,
				Threads: used.Threads + spec.BlockDim*n,
				CTAs:    used.CTAs + n,
			}
			if nu.Regs > total.Regs || nu.Shm > total.Shm || nu.Threads > total.Threads || nu.CTAs > total.CTAs {
				break
			}
			cur[i] = n
			rec(i+1, nu)
		}
	}
	rec(0, sm.Quota{})
	return out
}

// WorkloadName joins kernel abbreviations ("HOT_DXT").
func WorkloadName(specs []*kernels.Spec) string {
	name := ""
	for i, s := range specs {
		if i > 0 {
			name += "_"
		}
		name += s.Abbr
	}
	return name
}
