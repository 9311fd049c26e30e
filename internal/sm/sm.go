// Package sm models one streaming multiprocessor: dual warp schedulers
// (greedy-then-oldest or round-robin), ALU/SFU/LDST pipelines, a register
// scoreboard, CTA-granular resource allocation with optional per-kernel
// quotas (the mechanism all intra-SM slicing policies build on), an L1 data
// cache, and stall attribution in the classes of Figure 1 of the paper.
//
// The issue stage is event-driven: each scheduler keeps a ready-set over
// its resident warps (see DESIGN.md, "Ready-set issue scheduler") that is
// updated only where warp state actually changes — writeback drain, memory
// reply, barrier release, fetch-timer expiry, launch, and retire — instead
// of re-deriving every warp's readiness by a full rescan each cycle.
package sm

import (
	"fmt"

	"warpedslicer/internal/cache"
	"warpedslicer/internal/config"
	"warpedslicer/internal/isa"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/queue"
	"warpedslicer/internal/warp"
)

// MaxKernels mirrors mem.MaxKernels for per-kernel accounting.
const MaxKernels = mem.MaxKernels

// SchedulerKind selects the warp scheduling policy.
type SchedulerKind uint8

const (
	// GTO is greedy-then-oldest (the paper's default, "gto" in Table I).
	GTO SchedulerKind = iota
	// RR is loose round-robin.
	RR
)

func (k SchedulerKind) String() string {
	if k == GTO {
		return "gto"
	}
	return "rr"
}

// Quota is a per-kernel resource budget on one SM. A zero Quota means "no
// resources"; Unlimited() lifts all limits.
type Quota struct {
	Regs, Shm, Threads, CTAs int
}

// Unlimited returns a quota that never constrains.
func Unlimited() Quota {
	const big = 1 << 30
	return Quota{Regs: big, Shm: big, Threads: big, CTAs: big}
}

// cta tracks one resident thread block.
type cta struct {
	kernel  int
	gridID  int
	regs    int
	shm     int
	threads int

	//simlint:readiness
	warpsLeft int // warps not yet Done
	//simlint:readiness
	atBarrier int
	numWarps  int
	warpRefs  []*resident
	active    bool
}

// loadTracker aggregates the per-line completions of one load instruction.
// Trackers come from the SM's free list and return to it when remaining
// reaches 0: by then every line op, ring event and waiter entry that
// pointed at the tracker has been consumed, so no reference remains.
type loadTracker struct {
	res       *resident
	reg       int8
	remaining int
}

// wbEvent is a scheduled writeback (direct), a load-line completion
// (tracker != nil), or a pure scheduler wake-up (wake: the resident's
// fetch timer expires this cycle and it must be re-classified).
type wbEvent struct {
	res     *resident
	reg     int8
	wake    bool
	tracker *loadTracker
}

// lineOp is one cache-line transaction queued at the LD/ST unit.
type lineOp struct {
	addr    uint64
	kernel  int
	write   bool
	tracker *loadTracker
}

// resident wraps a warp with SM bookkeeping. cls/in cache the warp's issue
// classification as of its last refresh: cls is what Peek last returned and
// in the instruction it wants (valid when cls == BlockNone). stale marks a
// pending re-classification (the resident sits in its scheduler's staleQ);
// gone marks a resident removed from the SM whose pointer may still be
// referenced by in-flight trackers or ring events.
type resident struct {
	w       *warp.Warp
	sched   int
	ctaSlot int
	threads int // active threads (last warp of a CTA may be partial)

	// The four fields below are the scheduler's cached view of the warp;
	// every write must be paired with a readiness update (markStale /
	// refresh / resyncSched), or the ready set diverges from a rescan.
	//simlint:readiness
	cls warp.Block
	//simlint:readiness
	in isa.Instr
	//simlint:readiness
	stale bool
	//simlint:readiness
	gone bool
}

// stallClass labels the outcome of one stalled issue slot (the Figure 1
// classes plus idle). It exists separately from warp.Block because the
// exec class (functional unit busy) has no warp-side counterpart.
type stallClass uint8

const (
	stallIdleC stallClass = iota
	stallMemC
	stallRAWC
	stallExecC
	stallIBufC
)

// schedQ is one warp scheduler's incrementally-maintained state.
//
// Invariants (checked under -tags simassert):
//   - list holds exactly the non-gone residents assigned to this
//     scheduler, in launch order (the GTO "oldest" order).
//   - ready == |{r ∈ list : r.cls == BlockNone}| — the count is over the
//     *cached* classification, which staleQ/refresh keep honest.
//   - greedy, when non-nil, is the list resident with the maximum
//     LastIssued ≥ 0 (unique per scheduler: one issue per slot per cycle).
type schedQ struct {
	list   []*resident
	staleQ []*resident
	greedy *resident
	rrNext int
	ready  int

	// attrValid caches the stall attribution of the last GTO slot that
	// issued nothing. Blocked warps keep their cached classes and the
	// greedy-then-oldest order stays fixed until a readiness event
	// (markStale, resyncSched) clears attrValid. Ready warps the slot
	// refused stay refused while now < retryAt and the live LD/ST queue
	// holds more than retryMemQ lines, so the cache is replayed until
	// either bound runs out (see issueFrom).
	attrValid bool
	attrCls   stallClass
	attrK     int
	// retryAt is the earliest cycle a unit that a refused ready warp waits
	// on can free: min of aluFreeAt for ALU, sfuFreeAt for SFU and
	// ldstFreeAt for LDS, and for LDG/STG while the LD/ST unit is busy.
	retryAt int64
	// retryMemQ is the longest LD/ST queue that some refused LDG/STG,
	// held back by the queue alone, could join (memQCap − its lines).
	retryMemQ int
}

// KernelStats accumulates per-kernel-slot activity on one SM.
type KernelStats struct {
	WarpInsts    uint64
	ThreadInsts  uint64
	CTAsDone     uint64
	CTAsLaunched uint64
	LoadsIssued  uint64
	// Per-kernel stall attribution: each SM-wide stalled slot is charged
	// to the kernel of the highest-priority warp blocked for the winning
	// class, so summing a class over kernel slots reproduces the SM-wide
	// counter exactly (the conservation invariant the tests pin). Idle
	// slots have no blocked warp and are deliberately unattributed.
	StallMem, StallRAW, StallExec, StallIBuf uint64
}

// fields lists every counter once, in digest order. Stats.Add, EmitObs
// and digestStats loop over it, so a new counter is one struct field plus
// one entry here and its series name in kernelStatsNames.
func (ks *KernelStats) fields() [len(kernelStatsNames)]*uint64 {
	return [...]*uint64{&ks.WarpInsts, &ks.ThreadInsts, &ks.CTAsDone, &ks.CTAsLaunched,
		&ks.LoadsIssued, &ks.StallMem, &ks.StallRAW, &ks.StallExec, &ks.StallIBuf}
}

// kernelStatsNames holds the series name of each KernelStats.fields
// entry, in the same order.
var kernelStatsNames = [...]string{
	"ws_sm_kernel_warp_insts_total", "ws_sm_kernel_thread_insts_total",
	"ws_sm_kernel_ctas_done_total", "ws_sm_kernel_ctas_launched_total",
	"ws_sm_kernel_loads_issued_total", "ws_sm_kernel_stall_mem_total",
	"ws_sm_kernel_stall_raw_total", "ws_sm_kernel_stall_exec_total",
	"ws_sm_kernel_stall_ibuf_total",
}

// Stats is the per-SM counter set.
type Stats struct {
	Cycles int64
	// Issue-slot accounting: one slot per scheduler per cycle.
	Slots  uint64
	Issued uint64
	// Stall attribution in scheduler-slots (Figure 1 / Figure 7c classes).
	StallMem, StallRAW, StallExec, StallIBuf, StallIdle uint64
	// SchedFastSlots counts issue slots resolved on the scheduler fast
	// path: a GTO slot that cannot issue whose stall attribution was
	// replayed from cache with no walk over the warp list. Pure event
	// bookkeeping — no wall clock — so it is deterministic and part of
	// the obs surface (ws_sm_sched_fastpath_total).
	SchedFastSlots uint64
	// Cycle classification for the fast-forward opportunity meter (ROADMAP
	// item 2a): every SM-cycle lands in exactly one class, so the four sum
	// to Cycles (pinned by checkInvariants and the experiments
	// conservation test). Pure cycle counts — no wall clock — so they are
	// part of the determinism contract, unlike the prof phase timers.
	CycIssuing, CycStallKnown, CycStallUnknown, CycIdle uint64
	// Functional-unit busy cycles (utilization numerators).
	ALUBusy, SFUBusy, LDSTBusy uint64
	// Storage usage integrals (cycle-weighted, for REG/SHM utilization).
	RegCycles, ShmCycles uint64

	PerKernel [MaxKernels]KernelStats
	L1        cache.Stats
}

// fields lists every uint64 counter once, in digest order, with
// SchedFastSlots last: digestStats hashes all entries but that one (see
// digest.go). Add, EmitObs and digestStats loop over the list, so a new
// counter is one struct field plus one entry here and its series name in
// statsNames.
func (st *Stats) fields() [len(statsNames)]*uint64 {
	return [...]*uint64{&st.Slots, &st.Issued,
		&st.StallMem, &st.StallRAW, &st.StallExec, &st.StallIBuf, &st.StallIdle,
		&st.CycIssuing, &st.CycStallKnown, &st.CycStallUnknown, &st.CycIdle,
		&st.ALUBusy, &st.SFUBusy, &st.LDSTBusy, &st.RegCycles, &st.ShmCycles,
		&st.SchedFastSlots}
}

// statsNames holds the series name of each Stats.fields entry, in the
// same order.
var statsNames = [...]string{
	"ws_sm_slots_total", "ws_sm_issued_total",
	"ws_sm_stall_mem_total", "ws_sm_stall_raw_total", "ws_sm_stall_exec_total",
	"ws_sm_stall_ibuf_total", "ws_sm_stall_idle_total",
	"ws_sm_cyc_issuing_total", "ws_sm_cyc_stall_known_total",
	"ws_sm_cyc_stall_unknown_total", "ws_sm_cyc_idle_total",
	"ws_sm_alu_busy_total", "ws_sm_sfu_busy_total", "ws_sm_ldst_busy_total",
	"ws_sm_reg_cycles_total", "ws_sm_shm_cycles_total",
	"ws_sm_sched_fastpath_total",
}

// Add accumulates o's counters into st: every field-list counter, each
// kernel slot's counters and the L1 block. Cycles is the shared device
// clock, not a count, so it is copied rather than summed.
func (st *Stats) Add(o *Stats) {
	st.Cycles = o.Cycles
	dst := st.fields()
	for i, v := range o.fields() {
		*dst[i] += *v
	}
	for k := range st.PerKernel {
		dst := st.PerKernel[k].fields()
		for i, v := range o.PerKernel[k].fields() {
			*dst[i] += *v
		}
	}
	st.L1.Add(&o.L1)
}

// SM is one streaming multiprocessor.
type SM struct {
	ID  int        //simlint:nodigest -- identity: fixed at construction; the GPU digest walks SMs in ID order
	cfg config.GPU //simlint:nodigest -- config: fixed at construction, never mutates during a run

	Sched SchedulerKind

	l1  *cache.Cache
	sub *mem.Subsystem //simlint:nodigest -- owned elsewhere: digested as the GPU's icnt/l2/dram components

	warps []*resident
	ctas  []*cta

	// scheds holds one ready-set per warp scheduler; warpSeq assigns new
	// warps round-robin (monotonic, so mid-run CTA retirements cannot
	// skew the assignment parity the way a len(warps)-based rule does).
	scheds  []schedQ
	warpSeq int

	usedRegs, usedShm, usedThreads, usedCTAs int
	quotas                                   [MaxKernels]Quota
	kUsed                                    [MaxKernels]Quota // current usage per kernel
	hasQuota                                 bool

	// Allowed restricts which kernels may launch here (spatial
	// multitasking); nil means all.
	allowed map[int]bool

	aluFreeAt  []int64
	sfuFreeAt  int64
	ldstFreeAt int64

	// memQ holds the LD/ST unit's line transactions, oldest first.
	// unitFree admits an instruction only if all its lines fit in
	// memQCap, so the ring never grows past its initial size.
	memQ queue.Ring[lineOp]

	ring     wbRing
	ringMask int64 //simlint:nodigest -- config: derived from the fixed ringSize at construction

	// waiters maps each outstanding L1 miss line to the trackers of the
	// loads waiting on it; a line holds one slot from its Miss until the
	// fill in OnReply frees the slot for reuse.
	waiters *queue.Waiters[*loadTracker]

	// freeTrackers is the pool newTracker draws from and lineDone refills.
	//simlint:nodigest -- allocation pool: recycled trackers carry no live state
	freeTrackers []*loadTracker

	launchStamp int64

	stats Stats

	// OnCTAComplete, if set, is invoked when a thread block finishes
	// (used by the GPU dispatcher to launch replacement CTAs).
	//simlint:nodigest -- control plumbing: dispatcher callback, not architectural state
	OnCTAComplete func(smID, kernel, gridID int)
}

// memQCap is the LD/ST line-queue capacity (a power of two).
const memQCap = 64

// ringSize bounds how far ahead a writeback or wake-up may be scheduled.
// New rejects configurations whose worst-case latency does not fit, so
// schedule never has to clamp (a clamp would silently distort timing).
const ringSize = 512

// maxLDSPasses is the worst-case shared-memory serialization factor: the
// 32-bank model in internal/kernels caps BankConflicts at 32, so an LDS op
// occupies the unit for at most 32 warp passes.
const maxLDSPasses = 32

// New constructs an SM attached to the shared memory subsystem. It panics
// if cfg's pipeline latencies cannot fit in the writeback ring: the old
// behavior of clamping oversized latencies to the ring bound silently
// distorted timing, so oversized configurations are rejected up front.
func New(id int, cfg config.GPU, sub *mem.Subsystem) *SM {
	if err := validateLatencies(cfg); err != nil {
		panic(fmt.Sprintf("sm.New: %v", err))
	}
	s := &SM{
		ID:        id,
		cfg:       cfg,
		l1:        cache.New(cfg.L1.SizeBytes, cfg.L1.LineBytes, cfg.L1.Assoc, cfg.L1.MSHRs),
		sub:       sub,
		aluFreeAt: make([]int64, cfg.SM.ALUUnits),
		memQ:      queue.NewRing[lineOp](memQCap),
		ringMask:  ringSize - 1,
		waiters:   queue.NewWaiters[*loadTracker](cfg.L1.MSHRs),
		scheds:    make([]schedQ, cfg.SM.Schedulers),
		ctas:      make([]*cta, cfg.SM.MaxCTAs),
	}
	for i := range s.quotas {
		s.quotas[i] = Unlimited()
	}
	return s
}

// validateLatencies checks that every latency the SM can ever pass to
// schedule() fits inside the writeback ring.
func validateLatencies(cfg config.GPU) error {
	warpCycles := cfg.SM.WarpSize / cfg.SM.SIMTWidth
	if warpCycles < 1 {
		warpCycles = 1
	}
	worst := []struct {
		name string
		lat  int
	}{
		{"SM.ALULatency", cfg.SM.ALULatency},
		{"SM.SFULatency", cfg.SM.SFULatency},
		{"SM.LDSLatency (with max bank serialization)",
			cfg.SM.LDSLatency + (maxLDSPasses-1)*warpCycles},
		{"SM.FetchDelay", cfg.SM.FetchDelay},
		{"L1.HitLatency", cfg.L1.HitLatency},
	}
	for _, w := range worst {
		if w.lat >= ringSize {
			return fmt.Errorf("config: %s = %d cycles does not fit the %d-cycle writeback ring",
				w.name, w.lat, ringSize)
		}
	}
	return nil
}

// SetQuota installs a per-kernel resource budget (intra-SM slicing).
func (s *SM) SetQuota(kernel int, q Quota) {
	s.quotas[kernel%MaxKernels] = q
	s.hasQuota = true
}

// ClearQuotas removes all per-kernel budgets.
func (s *SM) ClearQuotas() {
	for i := range s.quotas {
		s.quotas[i] = Unlimited()
	}
	s.hasQuota = false
}

// SetAllowed restricts launchable kernels (inter-SM slicing); pass nil to
// allow all.
func (s *SM) SetAllowed(kernels map[int]bool) { s.allowed = kernels }

// Allowed reports whether kernel k may launch CTAs on this SM.
func (s *SM) Allowed(k int) bool { return s.allowed == nil || s.allowed[k] }

// need returns the resource demand of one CTA of spec.
func need(spec *kernels.Spec) Quota {
	return Quota{
		Regs:    spec.RegsPerCTA(),
		Shm:     spec.SharedMemPerTA,
		Threads: spec.BlockDim,
		CTAs:    1,
	}
}

// CanLaunch reports whether one CTA of spec fits under both the global
// pools and the kernel's quota.
func (s *SM) CanLaunch(kernel int, spec *kernels.Spec) bool {
	if !s.Allowed(kernel) {
		return false
	}
	n := need(spec)
	if s.usedRegs+n.Regs > s.cfg.SM.Registers ||
		s.usedShm+n.Shm > s.cfg.SM.SharedMemBytes ||
		s.usedThreads+n.Threads > s.cfg.SM.MaxThreads ||
		s.usedCTAs+1 > s.cfg.SM.MaxCTAs {
		return false
	}
	q := s.quotas[kernel%MaxKernels]
	u := s.kUsed[kernel%MaxKernels]
	return u.Regs+n.Regs <= q.Regs &&
		u.Shm+n.Shm <= q.Shm &&
		u.Threads+n.Threads <= q.Threads &&
		u.CTAs+1 <= q.CTAs
}

// Launch places one CTA of spec on the SM. base is the kernel's global
// memory base; gridID the CTA index within the grid. It returns false if
// the CTA does not fit.
func (s *SM) Launch(kernel int, spec *kernels.Spec, base uint64, gridID int) bool {
	if !s.CanLaunch(kernel, spec) {
		return false
	}
	slot := -1
	for i, c := range s.ctas {
		if c == nil || !c.active {
			slot = i
			break
		}
	}
	if slot < 0 {
		return false
	}
	n := need(spec)
	s.usedRegs += n.Regs
	s.usedShm += n.Shm
	s.usedThreads += n.Threads
	s.usedCTAs++
	k := kernel % MaxKernels
	s.kUsed[k].Regs += n.Regs
	s.kUsed[k].Shm += n.Shm
	s.kUsed[k].Threads += n.Threads
	s.kUsed[k].CTAs++

	nw := spec.WarpsPerCTA(s.cfg.SM.WarpSize)
	c := &cta{
		kernel:    kernel,
		gridID:    gridID,
		regs:      n.Regs,
		shm:       n.Shm,
		threads:   n.Threads,
		warpsLeft: nw,
		numWarps:  nw,
		active:    true,
	}
	s.ctas[slot] = c

	remaining := spec.BlockDim
	for wi := 0; wi < nw; wi++ {
		s.launchStamp++
		w := warp.New(kernel, slot, s.launchStamp, kernels.NewStream(spec, base, gridID, wi))
		threads := s.cfg.SM.WarpSize
		if remaining < threads {
			threads = remaining
		}
		remaining -= threads
		r := &resident{
			w:       w,
			sched:   s.warpSeq % s.cfg.SM.Schedulers,
			ctaSlot: slot,
			threads: threads,
			// Not fetched yet: the first refresh will classify it. Seeding
			// a non-ready class keeps the schedQ ready count honest until
			// then.
			cls: warp.BlockIBuffer,
		}
		s.warpSeq++
		s.warps = append(s.warps, r)
		s.scheds[r.sched].list = append(s.scheds[r.sched].list, r)
		s.markStale(r)
		c.warpRefs = append(c.warpRefs, r)
	}
	s.stats.PerKernel[k].CTAsLaunched++
	return true
}

// markStale queues a resident for re-classification by its scheduler's
// next refresh. Every warp state transition must be followed by a
// markStale of the affected resident (the wake-up hook contract; see
// DESIGN.md) — missing one would freeze the warp's cached class.
//
//simlint:wakehook
func (s *SM) markStale(r *resident) {
	q := &s.scheds[r.sched]
	q.attrValid = false
	if r.stale || r.gone {
		return
	}
	r.stale = true
	q.staleQ = append(q.staleQ, r)
}

// dropResidents removes every resident for which drop returns true from
// both s.warps and the per-scheduler lists, marking them gone so in-flight
// trackers and ring events referencing them become no-ops. Tails of the
// compacted backing arrays are nil'd so removed warps are unreachable.
func (s *SM) dropResidents(drop func(*resident) bool) {
	removed := false
	kept := s.warps[:0]
	for _, r := range s.warps {
		if drop(r) {
			r.gone = true
			removed = true
			continue
		}
		kept = append(kept, r)
	}
	for i := len(kept); i < len(s.warps); i++ {
		s.warps[i] = nil
	}
	s.warps = kept
	if !removed {
		return
	}
	for i := range s.scheds {
		s.resyncSched(&s.scheds[i])
	}
}

// resyncSched rebuilds one scheduler's ready-set bookkeeping after
// residents were dropped: compacts the list (preserving launch order),
// recounts ready warps from the cached classes (removal cannot change the
// class of a surviving warp), and rescans for the greedy warp in case the
// previous one was removed.
//
//simlint:wakehook
func (s *SM) resyncSched(q *schedQ) {
	kept := q.list[:0]
	ready := 0
	var greedy *resident
	var last int64 = -1
	for _, r := range q.list {
		if r.gone {
			continue
		}
		kept = append(kept, r)
		if r.cls == warp.BlockNone {
			ready++
		}
		if r.w.LastIssued >= 0 && r.w.LastIssued > last {
			last, greedy = r.w.LastIssued, r
		}
	}
	for i := len(kept); i < len(q.list); i++ {
		q.list[i] = nil
	}
	q.list = kept
	q.ready = ready
	q.greedy = greedy
	q.attrValid = false
}

// ResidentCTAs returns the number of active CTAs of kernel k.
func (s *SM) ResidentCTAs(k int) int { return s.kUsed[k%MaxKernels].CTAs }

// ResidentWarps returns the number of non-finished warps.
func (s *SM) ResidentWarps() int {
	n := 0
	for _, r := range s.warps {
		if !r.w.Finished() {
			n++
		}
	}
	return n
}

// Used returns the aggregate resource usage.
func (s *SM) Used() Quota {
	return Quota{Regs: s.usedRegs, Shm: s.usedShm, Threads: s.usedThreads, CTAs: s.usedCTAs}
}

// KernelUsed returns kernel k's resource usage on this SM.
func (s *SM) KernelUsed(k int) Quota { return s.kUsed[k%MaxKernels] }

// Idle reports whether the SM has no resident work.
func (s *SM) Idle() bool { return s.usedCTAs == 0 }

// Stats returns a snapshot of the SM counters (L1 stats included).
func (s *SM) Stats() Stats {
	st := s.stats
	st.L1 = s.l1.Stats
	return st
}

// HaltKernel force-releases every CTA of the kernel (run-to-target
// methodology: a finished kernel's resources return to the pool). In-flight
// memory replies to halted warps are dropped harmlessly.
func (s *SM) HaltKernel(kernel int) {
	for _, c := range s.ctas {
		if c == nil || !c.active || c.kernel != kernel {
			continue
		}
		c.active = false
		c.warpRefs = nil
		s.usedRegs -= c.regs
		s.usedShm -= c.shm
		s.usedThreads -= c.threads
		s.usedCTAs--
		k := c.kernel % MaxKernels
		s.kUsed[k].Regs -= c.regs
		s.kUsed[k].Shm -= c.shm
		s.kUsed[k].Threads -= c.threads
		s.kUsed[k].CTAs--
	}
	s.dropResidents(func(r *resident) bool { return r.w.Kernel == kernel })
}

// freeCTA releases slot's resources and removes its warps.
func (s *SM) freeCTA(slot int) {
	c := s.ctas[slot]
	if c == nil || !c.active {
		panic(fmt.Sprintf("sm%d: freeing inactive CTA slot %d", s.ID, slot))
	}
	c.active = false
	c.warpRefs = nil
	s.usedRegs -= c.regs
	s.usedShm -= c.shm
	s.usedThreads -= c.threads
	s.usedCTAs--
	k := c.kernel % MaxKernels
	s.kUsed[k].Regs -= c.regs
	s.kUsed[k].Shm -= c.shm
	s.kUsed[k].Threads -= c.threads
	s.kUsed[k].CTAs--
	s.stats.PerKernel[k].CTAsDone++

	s.dropResidents(func(r *resident) bool { return r.ctaSlot == slot && r.w.Finished() })

	if s.OnCTAComplete != nil {
		s.OnCTAComplete(s.ID, c.kernel, c.gridID)
	}
}

// L1MSHRInUse exposes the L1 MSHR occupancy (diagnostics).
func (s *SM) L1MSHRInUse() int { return s.l1.MSHRInUse() }

// MemQueueLen exposes the LD/ST line-queue depth (diagnostics).
func (s *SM) MemQueueLen() int { return s.memQ.Len() }

// DebugWarpStates summarizes resident warps for diagnostics: counts by
// (state, outstanding-loads>0) plus CTA slot occupancy.
func (s *SM) DebugWarpStates(now int64) string {
	running, barrier, done, withLoads := 0, 0, 0, 0
	for _, r := range s.warps {
		switch {
		case r.w.Finished():
			done++
		case r.w.State == 1: // AtBarrier
			barrier++
		default:
			running++
		}
		if r.w.OutstandingLoads > 0 {
			withLoads++
		}
	}
	activeCTAs := 0
	for _, c := range s.ctas {
		if c != nil && c.active {
			activeCTAs++
		}
	}
	return fmt.Sprintf("warps=%d run=%d bar=%d done=%d loads=%d ctas=%d memQ=%d mshr=%d",
		len(s.warps), running, barrier, done, withLoads, activeCTAs, s.memQ.Len(), s.l1.MSHRInUse())
}
