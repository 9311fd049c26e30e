// Package gpu assembles the full device: an array of SMs sharing one memory
// subsystem, kernel instances, and a pluggable Dispatcher that decides where
// CTAs launch (the multiprogramming policy under study).
//
// It also implements the paper's evaluation methodology (§V-A): each kernel
// is first run in isolation to record an instruction target; in a
// multiprogrammed run every kernel executes until it reaches its target,
// a finished kernel's resources are released immediately, and the total
// elapsed cycles are the workload's execution time.
package gpu

import (
	"fmt"

	"warpedslicer/internal/config"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/sm"
)

// MaxKernels mirrors the per-kernel accounting bound.
const MaxKernels = sm.MaxKernels

// Kernel is one resident kernel instance.
type Kernel struct {
	Spec *kernels.Spec
	// Slot is the kernel's accounting slot (0-based).
	Slot int
	// Base is the kernel's global-memory base address.
	Base uint64
	// NextCTA indexes the next grid CTA to dispatch.
	NextCTA int
	// TargetInsts, when non-zero, halts the kernel once this many thread
	// instructions have executed (the paper's run-to-target methodology).
	TargetInsts uint64
	// Done marks a halted kernel. FinishCycle records when.
	Done        bool
	FinishCycle int64
	// Insts is the last sampled cumulative thread-instruction count.
	Insts uint64
	// ArrivalCycle delays the kernel: it cannot launch CTAs (and does not
	// count toward completion) before this cycle (Figure 2e's scenario of
	// a kernel entering a busy GPU).
	ArrivalCycle int64
	arrived      bool
}

// Arrived reports whether the kernel has entered the system.
func (k *Kernel) Arrived() bool { return k.arrived }

// GridExhausted reports whether all grid CTAs have been dispatched.
func (k *Kernel) GridExhausted() bool { return k.NextCTA >= k.Spec.GridDim }

// ArrivalAware dispatchers are notified when a delayed kernel enters the
// system (so a controller can launch a new repartitioning phase, Figure
// 2e).
type ArrivalAware interface {
	OnKernelArrival(g *GPU, k *Kernel)
}

// Dispatcher is the multiprogramming policy hook.
type Dispatcher interface {
	// Setup runs once before the first cycle (e.g. to split SMs or set
	// quotas).
	Setup(g *GPU)
	// Fill launches CTAs onto SMs with free resources. It is called at
	// start-up and whenever a CTA completes or a kernel halts.
	Fill(g *GPU)
	// Tick runs every cycle (profiling controllers use it).
	Tick(g *GPU)
}

// GPU is the simulated device.
type GPU struct {
	Cfg     config.GPU
	Mem     *mem.Subsystem
	SMs     []*sm.SM
	Kernels []*Kernel

	// Log, when non-nil, receives kernel lifecycle events (arrival,
	// completion). Dispatchers that hold their own reference (the
	// Warped-Slicer controller) add decision events to the same log.
	Log *obs.EventLog
	// Monitor, when non-nil, is invoked every MonitorEvery cycles — the
	// hook live sinks (registry snapshot publishing) attach to. It runs on
	// the simulation goroutine, so it may read the device freely.
	Monitor      func(*GPU)
	MonitorEvery int64

	// Prof, when non-nil, samples wall-clock phase costs of the cycle
	// loop (see internal/prof). It never feeds back into simulator state:
	// runs with and without a profiler are byte-identical in every
	// counter and CSV.
	Prof *prof.Profiler

	// DigestEvery, when > 0, records a chained whole-GPU state digest
	// every DigestEvery cycles into Digests and/or Flight (see
	// internal/digest). Zero (the default) keeps digesting entirely off
	// the hot path: Step pays one predicted-not-taken branch.
	DigestEvery int64
	// Digests, when non-nil, accumulates every digest record of the run
	// (the audit trail the divergence bisector compares).
	Digests *digest.Trail
	// Flight, when non-nil, keeps only the most recent records (the
	// flight recorder dumped as a black box on panic).
	Flight *digest.Ring
	// BlackBoxPath, when non-empty and a flight recorder is armed, is
	// where Run/RunCycles write the black-box JSON report if the
	// simulation panics (simassert violations panic too).
	BlackBoxPath string
	// ObsSnapshot, when non-nil, supplies the obs registry snapshot for
	// black-box reports (instrument wires it when a registry exists).
	ObsSnapshot func() any

	dispatcher Dispatcher
	now        int64
	needFill   bool

	// digestChain threads the chained digest when only a Flight ring is
	// attached; digestRecords counts records for the obs surface.
	digestChain   digest.Sum
	digestRecords uint64
	smNames       []string

	// ffSkippable counts device cycles where every SM was in a
	// known-wakeup stall or idle AND the memory hierarchy held nothing
	// but stamped replies — cycles an event-driven fast-forward loop
	// (ROADMAP item 2a) could skip outright. Deterministic by
	// construction: derived purely from cycle classification, no wall
	// clock.
	ffSkippable uint64
}

// New builds a GPU with the given configuration and policy.
func New(cfg config.GPU, d Dispatcher) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &GPU{Cfg: cfg, Mem: mem.New(cfg), dispatcher: d}
	for i := 0; i < cfg.NumSMs; i++ {
		s := sm.New(i, cfg, g.Mem)
		s.OnCTAComplete = func(smID, kernel, gridID int) { g.needFill = true }
		g.SMs = append(g.SMs, s)
	}
	return g
}

// AddKernel registers a kernel; targetInsts of zero means "run the grid".
func (g *GPU) AddKernel(spec *kernels.Spec, targetInsts uint64) *Kernel {
	return g.AddKernelAt(spec, targetInsts, 0)
}

// AddKernelAt registers a kernel that arrives at the given cycle. Until
// then it launches no CTAs; on arrival, ArrivalAware dispatchers are
// notified so they can repartition (Figure 2e).
func (g *GPU) AddKernelAt(spec *kernels.Spec, targetInsts uint64, arrival int64) *Kernel {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if len(g.Kernels) >= MaxKernels {
		panic(fmt.Sprintf("gpu: more than %d kernels", MaxKernels))
	}
	k := &Kernel{
		Spec:         spec,
		Slot:         len(g.Kernels),
		Base:         uint64(len(g.Kernels)+1) << 40,
		TargetInsts:  targetInsts,
		ArrivalCycle: arrival,
		arrived:      arrival <= 0,
	}
	g.Kernels = append(g.Kernels, k)
	return k
}

// Now returns the current core-clock cycle.
func (g *GPU) Now() int64 { return g.now }

// SetSchedulers switches every SM's warp scheduler.
func (g *GPU) SetSchedulers(kind sm.SchedulerKind) {
	for _, s := range g.SMs {
		s.Sched = kind
	}
}

// LaunchCTA dispatches kernel k's next grid CTA onto SM s, if it fits.
func (g *GPU) LaunchCTA(s *sm.SM, k *Kernel) bool {
	if k.Done || !k.arrived || k.GridExhausted() {
		return false
	}
	if !s.Launch(k.Slot, k.Spec, k.Base, k.NextCTA) {
		return false
	}
	k.NextCTA++
	return true
}

// KernelInsts returns kernel slot's cumulative thread instructions across
// all SMs. Out-of-range slots read as 0: wrapping them modulo MaxKernels
// would silently charge one kernel's progress to another.
func (g *GPU) KernelInsts(slot int) uint64 {
	if slot < 0 || slot >= MaxKernels {
		return 0
	}
	var total uint64
	for _, s := range g.SMs {
		total += s.Stats().PerKernel[slot].ThreadInsts
	}
	return total
}

// haltKernel releases every resource held by the kernel (paper §V-A: a
// kernel that reaches its instruction target is halted and its resources
// are freed for the remaining kernels).
func (g *GPU) haltKernel(k *Kernel) {
	k.Done = true
	k.FinishCycle = g.now
	// Re-sample at halt time: k.Insts may lag by up to the checkTargets
	// period, and the emitted kernel_done count must agree with what any
	// later KernelInsts read (the run's CoRun.Insts and targets) reports.
	k.Insts = g.KernelInsts(k.Slot)
	for _, s := range g.SMs {
		s.HaltKernel(k.Slot)
		s.SetQuota(k.Slot, sm.Quota{}) // no relaunches
	}
	g.needFill = true
	g.Log.Emit(g.now, obs.EvKernelDone, map[string]any{"kernel": k.Slot, "insts": k.Insts})
}

// AllDone reports whether every kernel has halted.
func (g *GPU) AllDone() bool {
	for _, k := range g.Kernels {
		if !k.Done {
			return false
		}
	}
	return len(g.Kernels) > 0
}

// Step advances the device one core cycle. p is the engine profiler on
// cycles it elected and nil on every other cycle (and always when g.Prof
// is nil), so unelected cycles take no phase marks.
func (g *GPU) Step() {
	var p *prof.Profiler
	if g.Prof.StartCycle() {
		p = g.Prof
	}

	if g.now == 0 {
		g.dispatcher.Setup(g)
		g.dispatcher.Fill(g)
	}

	// Deliver kernel arrivals.
	for _, k := range g.Kernels {
		if !k.arrived && g.now >= k.ArrivalCycle {
			k.arrived = true
			g.Log.Emit(g.now, obs.EvKernelArrival, map[string]any{"kernel": k.Slot})
			if aa, ok := g.dispatcher.(ArrivalAware); ok {
				aa.OnKernelArrival(g, k)
			}
			g.needFill = true
		}
	}
	if p != nil {
		p.Mark(prof.Controller)
	}

	// allSkip tracks whether every SM's wake-up time this cycle is known
	// (stalled-known or idle); combined with a quiescent-except-replies
	// memory system below, the whole device cycle is skippable.
	allSkip := true
	for _, s := range g.SMs {
		if cl := s.Cycle(g.now, p); cl == sm.ClassIssuing || cl == sm.ClassStallUnknown {
			allSkip = false
		}
	}

	for _, reply := range g.Mem.Cycle(g.now, p) {
		if reply.SM >= 0 && reply.SM < len(g.SMs) {
			g.SMs[reply.SM].OnReply(reply.LineAddr)
		}
	}
	if p != nil {
		p.Mark(prof.L1)
	}

	if allSkip && g.Mem.OnlyRepliesInFlight() {
		g.ffSkippable++
	}

	g.dispatcher.Tick(g)

	if g.now%64 == 0 {
		g.checkTargets()
	}
	if p != nil {
		p.Mark(prof.Controller)
	}
	if g.MonitorEvery > 0 && g.Monitor != nil && g.now%g.MonitorEvery == 0 {
		// The monitor runs on its own cadence (deliberately coprime to
		// the profiler's sampling period), so it is timed as a rare
		// phase on every firing: a sampled Mark here essentially never
		// coincided with a monitor cycle and reported obs_drain as a
		// constant 0.
		//simlint:allow determtaint -- rare-phase stamp: opaque token handed back to RareEnd, never compared to sim state
		t0 := g.Prof.RareStart()
		g.Monitor(g)
		g.Prof.RareEnd(prof.ObsDrain, t0)
	}
	if g.needFill {
		g.needFill = false
		g.dispatcher.Fill(g)
		if p != nil {
			p.Mark(prof.Controller)
		}
	}
	if g.DigestEvery > 0 && g.now%g.DigestEvery == 0 {
		//simlint:allow determtaint -- rare-phase stamp: opaque token handed back to RareEnd, never compared to sim state
		t0 := g.Prof.RareStart()
		g.recordDigest()
		g.Prof.RareEnd(prof.Digest, t0)
	}
	g.now++
}

// checkTargets samples instruction counts and halts kernels that reached
// their targets (or exhausted their grids).
func (g *GPU) checkTargets() {
	for _, k := range g.Kernels {
		if k.Done {
			continue
		}
		k.Insts = g.KernelInsts(k.Slot)
		reached := k.TargetInsts > 0 && k.Insts >= k.TargetInsts
		drained := k.GridExhausted() && !g.anyResident(k.Slot)
		if reached || drained {
			g.haltKernel(k)
		}
	}
}

func (g *GPU) anyResident(slot int) bool {
	for _, s := range g.SMs {
		if s.ResidentCTAs(slot) > 0 {
			return true
		}
	}
	return false
}

// Run executes until all kernels halt or maxCycles elapse; it returns the
// elapsed cycles. If the simulation panics (simassert violations panic)
// and a flight recorder is armed with a BlackBoxPath, the black-box
// report is dumped before the panic propagates.
func (g *GPU) Run(maxCycles int64) int64 {
	defer g.recoverToBlackBox()
	for g.now < maxCycles && !g.AllDone() {
		g.Step()
	}
	g.checkTargets()
	return g.now
}

// RunCycles advances exactly n further cycles (ignoring targets), with
// the same black-box-on-panic behavior as Run.
func (g *GPU) RunCycles(n int64) {
	defer g.recoverToBlackBox()
	end := g.now + n
	for g.now < end {
		g.Step()
	}
}

// AggregateSM sums SM statistics across the device.
func (g *GPU) AggregateSM() sm.Stats {
	var agg sm.Stats
	for _, s := range g.SMs {
		st := s.Stats()
		agg.Add(&st)
	}
	return agg
}

// Profile is the engine self-profile: the deterministic fast-forward
// opportunity meter (always populated) plus, when a profiler is attached,
// the sampled wall-clock phase costs. Served as JSON on /profile and the
// source of figengineprof rows.
type Profile struct {
	Cycles int64 `json:"cycles"`
	SMs    int   `json:"sms"`

	// SM-cycle classification totals across the device; the four sum to
	// SMs × Cycles.
	CycIssuing      uint64 `json:"cyc_issuing"`
	CycStallKnown   uint64 `json:"cyc_stall_known"`
	CycStallUnknown uint64 `json:"cyc_stall_unknown"`
	CycIdle         uint64 `json:"cyc_idle"`

	// FFSkippableCycles counts whole-device cycles an event-driven loop
	// could skip; FFSkippableFrac is that over Cycles — the upper bound
	// on ROADMAP item 2a's payoff for this workload.
	FFSkippableCycles uint64  `json:"ff_skippable_cycles"`
	FFSkippableFrac   float64 `json:"fast_forward_skippable_frac"`

	// SchedFastFrac is the fraction of issue slots the ready-set
	// scheduler resolved on its cached fast path (no walk over the warp
	// list) — the realized half of the opportunity the meter above bounds.
	SchedFastFrac float64 `json:"sched_fastpath_frac"`

	// Phases is the wall-clock side; nil when no profiler is attached.
	Phases *prof.Summary `json:"phases,omitempty"`
}

// Profile snapshots the engine self-profile at the current cycle.
func (g *GPU) Profile() Profile {
	agg := g.AggregateSM()
	pr := Profile{
		Cycles:            g.now,
		SMs:               len(g.SMs),
		CycIssuing:        agg.CycIssuing,
		CycStallKnown:     agg.CycStallKnown,
		CycStallUnknown:   agg.CycStallUnknown,
		CycIdle:           agg.CycIdle,
		FFSkippableCycles: g.ffSkippable,
	}
	if agg.Slots > 0 {
		pr.SchedFastFrac = float64(agg.SchedFastSlots) / float64(agg.Slots)
	}
	if g.now > 0 {
		pr.FFSkippableFrac = float64(g.ffSkippable) / float64(g.now)
	}
	if g.Prof != nil {
		s := g.Prof.Summary()
		pr.Phases = &s
	}
	return pr
}
