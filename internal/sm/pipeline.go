package sm

import (
	"math"

	"warpedslicer/internal/assert"
	"warpedslicer/internal/cache"
	"warpedslicer/internal/isa"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/warp"
)

// CycleClass deterministically classifies one SM-cycle for the
// fast-forward opportunity meter: what fraction of cycles could an
// event-driven engine skip because every pending wake-up time is already
// known? Classification is a pure function of simulator state (no wall
// clock), so the class counters are byte-identical at any -parallel
// setting and belong to the determinism contract.
type CycleClass uint8

const (
	// ClassIssuing: the SM issued at least one instruction.
	ClassIssuing CycleClass = iota
	// ClassStallKnown: no issue, but every pending event has a known
	// wake-up time — writeback-ring entries, fetch timers, and
	// outstanding loads whose replies are already scheduled in the reply
	// network with a stamped readyAt (the PR 5 span wake times). An
	// event-driven loop could jump this SM straight to the earliest one.
	ClassStallKnown
	// ClassStallUnknown: no issue and at least one wake-up time is not
	// yet known (LD/ST line queue still pumping, or a miss still
	// traversing L2/DRAM, whose completion cycle is not yet scheduled).
	ClassStallUnknown
	// ClassIdle: no resident CTAs.
	ClassIdle

	// NumClasses bounds the class enum.
	NumClasses
)

func (c CycleClass) String() string {
	switch c {
	case ClassIssuing:
		return "issuing"
	case ClassStallKnown:
		return "stall_known"
	case ClassStallUnknown:
		return "stall_unknown"
	case ClassIdle:
		return "idle"
	}
	return "unknown"
}

// Cycle advances the SM by one core-clock cycle and classifies it. p is
// the engine profiler on cycles it elected and nil otherwise; its marks
// charge the stages to execute (writeback drain), l1 (line-queue pump)
// and issue (scheduler loop).
func (s *SM) Cycle(now int64, p *prof.Profiler) CycleClass {
	s.stats.Cycles++
	s.stats.RegCycles += uint64(s.usedRegs)
	s.stats.ShmCycles += uint64(s.usedShm)

	s.drainWritebacks(now)
	if p != nil {
		p.Mark(prof.Execute)
	}
	s.pumpMemQueue(now)
	if p != nil {
		p.Mark(prof.L1)
	}

	issued := false
	for sched := 0; sched < s.cfg.SM.Schedulers; sched++ {
		s.stats.Slots++
		if s.issueFrom(sched, now) {
			issued = true
		}
	}
	if p != nil {
		p.Mark(prof.Issue)
	}

	cl := s.classify(issued)
	if assert.Enabled {
		s.checkInvariants()
	}
	return cl
}

// classify buckets the cycle that just executed into its CycleClass and
// bumps the matching counter. Stall disambiguation: a non-empty LD/ST
// queue has per-cycle side effects (L1 state, interconnect injection) and
// is never skippable; outstanding miss lines (s.waiters) are skippable
// only once each line's reply sits in the reply network with a stamped
// readyAt. Everything else pending — writeback ring, fetch delays, unit
// busy timers, barriers released by those — wakes at locally known times.
func (s *SM) classify(issued bool) CycleClass {
	var cl CycleClass
	switch {
	case issued:
		cl = ClassIssuing
	case s.usedCTAs == 0:
		cl = ClassIdle
	case s.memQ.Len() > 0:
		cl = ClassStallUnknown
	case s.waiters.Len() > 0 && s.sub.RepliesInFlight(s.ID) < s.waiters.Len():
		cl = ClassStallUnknown
	default:
		cl = ClassStallKnown
	}
	switch cl {
	case ClassIssuing:
		s.stats.CycIssuing++
	case ClassStallKnown:
		s.stats.CycStallKnown++
	case ClassStallUnknown:
		s.stats.CycStallUnknown++
	default:
		s.stats.CycIdle++
	}
	return cl
}

// drainWritebacks applies all writebacks and scheduler wake-ups scheduled
// for `now`. Every warp whose state changes is marked stale so its
// scheduler re-classifies it before the next issue walk.
func (s *SM) drainWritebacks(now int64) {
	for i := s.ring.take(now & s.ringMask); i != 0; {
		var ev wbEvent
		ev, i = s.ring.pop(i)
		switch {
		case ev.wake:
			s.markStale(ev.res)
		case ev.tracker != nil:
			s.lineDone(ev.tracker)
		default:
			ev.res.w.Writeback(ev.reg, false)
			s.markStale(ev.res)
		}
	}
}

// schedule registers a writeback event `lat` cycles in the future. New
// validates that every configured latency fits the ring, so an
// out-of-range lat here is a bug, not a config problem.
func (s *SM) schedule(now, lat int64, ev wbEvent) {
	if assert.Enabled && (lat < 1 || lat > s.ringMask) {
		assert.Failf("sm %d cycle %d: scheduled latency %d outside ring [1,%d]",
			s.ID, now, lat, s.ringMask)
	}
	if lat < 1 {
		lat = 1
	}
	s.ring.push((now+lat)&s.ringMask, ev)
}

// refresh re-classifies every stale resident of q: one Peek per warp that
// actually changed state since the last walk, instead of one per resident
// warp per cycle. An i-buffer-blocked warp's unblock time is its fetch
// timer, which is known now — a wake event is scheduled for it so no
// further polling is needed.
//
//simlint:wakehook
func (s *SM) refresh(q *schedQ, now int64) {
	if len(q.staleQ) == 0 {
		return
	}
	fetchDelay := s.cfg.SM.FetchDelay
	for i, r := range q.staleQ {
		q.staleQ[i] = nil
		r.stale = false
		if r.gone {
			continue
		}
		wasReady := r.cls == warp.BlockNone
		in, cls := r.w.Peek(now, fetchDelay)
		r.in, r.cls = in, cls
		if isReady := cls == warp.BlockNone; isReady != wasReady {
			if isReady {
				q.ready++
			} else {
				q.ready--
			}
		}
		if cls == warp.BlockIBuffer {
			s.schedule(now, r.w.FetchReadyAt()-now, wbEvent{res: r, wake: true})
		}
	}
	q.staleQ = q.staleQ[:0]
}

// stallSaw records, per stall class, the kernel slot of the first
// (highest-priority) warp seen blocked for that class, or -1.
type stallSaw struct {
	mem, raw, exec, ibuf int
}

// issueFrom lets scheduler `sched` issue at most one instruction,
// reporting whether it did.
func (s *SM) issueFrom(sched int, now int64) bool {
	q := &s.scheds[sched]

	// Fast path: a GTO slot that issued nothing replays its cached stall
	// attribution while the walk below provably would too. No readiness
	// event has arrived since (markStale and resyncSched clear
	// attrValid), so every blocked warp's class, the greedy warp and the
	// oldest-first order are unchanged. Every ready warp is still
	// refused: before retryAt no unit one of them waits on can free
	// (another scheduler issues only on a free unit, which makes units
	// busier, never idler), and the LD/ST queue, read live, is still too
	// full for each global access it held back. A ready EXIT waiting on
	// loads needs no bound: lineDone wakes it through markStale. A refused
	// tryIssue has no side effects, so the walk would issue nothing and
	// charge the same class to the same kernel.
	if s.Sched == GTO && q.attrValid && len(q.staleQ) == 0 &&
		(q.ready == 0 || now < q.retryAt && s.memQ.Len() > q.retryMemQ) {
		if assert.Enabled {
			s.checkReplay(q, now)
		}
		s.stats.SchedFastSlots++
		s.chargeStall(q.attrCls, q.attrK)
		return false
	}

	s.refresh(q, now)

	if len(q.list) == 0 {
		s.stats.StallIdle++
		if s.Sched == GTO {
			q.attrValid, q.attrCls, q.attrK = true, stallIdleC, 0
		}
		return false
	}

	// Issue pass: find the first ready warp in scheduler priority order
	// that passes the live checks (exit-load drain, unit availability).
	// Blocked warps are skipped with a single class compare — stall
	// attribution only matters when nothing issues, and is computed by a
	// separate walk below so issuing slots never pay for it. Nothing the
	// pass observes mutates between candidates (an issue ends the slot,
	// and ends the walk: CTA retirement may compact q.list in place).
	// Each refusal folds into the retry bound the fast path tests.
	greedy := q.greedy // snapshot: an issue reassigns q.greedy mid-slot
	q.retryAt, q.retryMemQ = math.MaxInt64, -1
	issued := false
	rrStart := 0
	switch s.Sched {
	case RR:
		n := len(q.list)
		rrStart = q.rrNext % n
		q.rrNext++
		if q.ready > 0 {
			for i := 0; i < n; i++ {
				r := q.list[(rrStart+i)%n]
				if r.cls == warp.BlockNone && s.tryIssue(q, r, now) {
					issued = true
					break
				}
			}
		}
	default: // GTO: greedy on most-recently-issued, then oldest.
		// left counts the ready warps not yet tried; the walk ends once
		// all of them were.
		left := q.ready
		if greedy != nil && greedy.cls == warp.BlockNone {
			issued = s.tryIssue(q, greedy, now)
			left--
		}
		// Oldest-first by launch age (list preserves launch order).
		for _, r := range q.list {
			if issued || left == 0 {
				break
			}
			if r.cls != warp.BlockNone || r == greedy {
				continue
			}
			left--
			issued = s.tryIssue(q, r, now)
		}
	}

	if issued {
		s.stats.Issued++
		return true
	}

	cls, k := s.attribution(q, greedy, rrStart)
	s.chargeStall(cls, k)
	if s.Sched == GTO {
		q.attrValid, q.attrCls, q.attrK = true, cls, k
	}
	return false
}

// attribution is the no-issue slot's stall class and kernel: the
// first-seen blocked warp per stall class, in the same priority order the
// issue pass used, with the highest-ranked class winning. Ready warps
// reaching this walk are unissuable this slot (the issue pass proved it,
// and nothing has changed since), so they attribute as exec or
// exit-load-wait. Memory outranks every other class and only its first
// warp's kernel is charged, so the walk stops at the first memory stall.
func (s *SM) attribution(q *schedQ, greedy *resident, rrStart int) (stallClass, int) {
	saw := stallSaw{mem: -1, raw: -1, exec: -1, ibuf: -1}
	if s.Sched == RR {
		n := len(q.list)
		for i := 0; i < n && saw.mem < 0; i++ {
			s.attribute(q.list[(rrStart+i)%n], &saw)
		}
	} else {
		if greedy != nil {
			s.attribute(greedy, &saw)
		}
		for _, r := range q.list {
			if saw.mem >= 0 {
				break
			}
			if r != greedy {
				s.attribute(r, &saw)
			}
		}
	}

	switch {
	case saw.mem >= 0:
		return stallMemC, saw.mem
	case saw.raw >= 0:
		return stallRAWC, saw.raw
	case saw.exec >= 0:
		return stallExecC, saw.exec
	case saw.ibuf >= 0:
		return stallIBufC, saw.ibuf
	}
	return stallIdleC, 0
}

// tryIssue attempts to issue a ready (cls == BlockNone) candidate,
// reporting whether it did. A refusal has no side effects beyond folding
// the candidate into q's retry bound.
func (s *SM) tryIssue(q *schedQ, r *resident, now int64) bool {
	in := r.in
	// Exits must wait for outstanding loads so the CTA's resources are
	// not freed under in-flight replies. The last load's lineDone marks
	// the warp stale, so the refusal needs no retry bound.
	if in.Kind == isa.EXIT && r.w.OutstandingLoads > 0 {
		return false
	}
	if !s.unitFree(in, now) {
		s.noteBusy(q, in, now)
		return false
	}
	s.issue(r, in, now)
	// The issuer now has the scheduler's maximum LastIssued, i.e. it is
	// the next greedy warp — unless the issue retired it (EXIT freeing
	// its CTA), in which case resyncSched already rescanned.
	if !r.gone {
		q.greedy = r
	}
	return true
}

// noteBusy folds an instruction that unitFree just refused into q's retry
// bound. retryAt drops to the cycle its unit next frees; a global access
// held back by the LD/ST queue alone instead raises retryMemQ to the
// longest queue it could join. Any other refusal pins retryAt to now,
// which disables the replay.
func (s *SM) noteBusy(q *schedQ, in isa.Instr, now int64) {
	at := now
	switch in.Kind {
	case isa.ALU:
		at = math.MaxInt64
		for _, free := range s.aluFreeAt {
			at = min(at, free)
		}
	case isa.SFU:
		at = s.sfuFreeAt
	case isa.LDS:
		at = s.ldstFreeAt
	case isa.LDG, isa.STG:
		if s.ldstFreeAt <= now {
			q.retryMemQ = max(q.retryMemQ, memQCap-globalLines(in))
			return
		}
		at = s.ldstFreeAt
	}
	q.retryAt = min(q.retryAt, at)
}

// attribute records r's stall class into saw (first-seen per class).
func (s *SM) attribute(r *resident, saw *stallSaw) {
	k := r.w.Kernel % MaxKernels
	switch r.cls {
	case warp.BlockDone, warp.BlockBarrier:
	case warp.BlockIBuffer:
		if saw.ibuf < 0 {
			saw.ibuf = k
		}
	case warp.BlockRAW:
		if saw.raw < 0 {
			saw.raw = k
		}
	case warp.BlockMemory:
		if saw.mem < 0 {
			saw.mem = k
		}
	default: // ready, but proved unissuable by the issue pass
		if r.in.Kind == isa.EXIT && r.w.OutstandingLoads > 0 {
			if saw.mem < 0 {
				saw.mem = k
			}
		} else if saw.exec < 0 {
			saw.exec = k
		}
	}
}

// chargeStall accounts one stalled issue slot to its class and kernel.
func (s *SM) chargeStall(cls stallClass, k int) {
	switch cls {
	case stallMemC:
		s.stats.StallMem++
		s.stats.PerKernel[k].StallMem++
	case stallRAWC:
		s.stats.StallRAW++
		s.stats.PerKernel[k].StallRAW++
	case stallExecC:
		s.stats.StallExec++
		s.stats.PerKernel[k].StallExec++
	case stallIBufC:
		s.stats.StallIBuf++
		s.stats.PerKernel[k].StallIBuf++
	default:
		s.stats.StallIdle++
	}
}

// unitFree checks functional-unit availability for the instruction.
func (s *SM) unitFree(in isa.Instr, now int64) bool {
	switch in.Kind {
	case isa.ALU:
		for _, free := range s.aluFreeAt {
			if free <= now {
				return true
			}
		}
		return false
	case isa.SFU:
		return s.sfuFreeAt <= now
	case isa.LDG, isa.STG:
		return s.ldstFreeAt <= now && s.memQ.Len()+globalLines(in) <= memQCap
	case isa.LDS:
		return s.ldstFreeAt <= now
	default: // BAR, EXIT consume only the issue slot
		return true
	}
}

// globalLines is the number of LD/ST queue entries a global access takes.
func globalLines(in isa.Instr) int {
	if in.Lines == 0 {
		return 1
	}
	return int(in.Lines)
}

// issue executes one instruction's issue-stage effects.
func (s *SM) issue(r *resident, in isa.Instr, now int64) {
	spec := r.w.Spec()
	k := r.w.Kernel % MaxKernels
	s.stats.PerKernel[k].WarpInsts++
	threads := r.threads
	if in.ActivePct > 0 && in.ActivePct < 100 {
		// SIMT divergence: only the active lanes do useful work.
		threads = threads * int(in.ActivePct) / 100
		if threads < 1 {
			threads = 1
		}
	}
	s.stats.PerKernel[k].ThreadInsts += uint64(threads)

	warpCycles := int64(s.cfg.SM.WarpSize / s.cfg.SM.SIMTWidth) // lanes per warp
	if warpCycles < 1 {
		warpCycles = 1
	}

	isLoad := in.Kind == isa.LDG
	r.w.Issue(now, in, isLoad, s.cfg.SM.FetchDelay, spec.ICacheMissPct)
	// Issue changed the warp's state (i-buffer consumed, scoreboard,
	// possibly Done/AtBarrier): re-classify before the next walk.
	s.markStale(r)

	switch in.Kind {
	case isa.ALU:
		for i, free := range s.aluFreeAt {
			if free <= now {
				s.aluFreeAt[i] = now + warpCycles
				break
			}
		}
		s.stats.ALUBusy += uint64(warpCycles)
		s.schedule(now, int64(s.cfg.SM.ALULatency), wbEvent{res: r, reg: in.Dest})

	case isa.SFU:
		s.sfuFreeAt = now + int64(s.cfg.SM.SFUInitInterval)*warpCycles
		s.stats.SFUBusy += uint64(int64(s.cfg.SM.SFUInitInterval) * warpCycles)
		s.schedule(now, int64(s.cfg.SM.SFULatency), wbEvent{res: r, reg: in.Dest})

	case isa.LDS:
		// Lines carries the bank-conflict serialization factor for
		// shared-memory accesses.
		passes := int64(in.Lines)
		if passes < 1 {
			passes = 1
		}
		s.ldstFreeAt = now + warpCycles*passes
		s.stats.LDSTBusy += uint64(warpCycles * passes)
		s.schedule(now, int64(s.cfg.SM.LDSLatency)+(passes-1)*warpCycles, wbEvent{res: r, reg: in.Dest})

	case isa.LDG, isa.STG:
		lines := globalLines(in)
		occ := warpCycles
		if int64(lines) > occ {
			occ = int64(lines)
		}
		s.ldstFreeAt = now + occ
		s.stats.LDSTBusy += uint64(occ)
		var tr *loadTracker
		if isLoad {
			tr = s.newTracker(r, in.Dest, lines)
			s.stats.PerKernel[k].LoadsIssued++
		}
		lineBytes := uint64(s.cfg.L1.LineBytes)
		base := in.Addr &^ (lineBytes - 1)
		for i := 0; i < lines; i++ {
			s.memQ.Push(lineOp{
				addr:    base + uint64(i)*lineBytes,
				kernel:  r.w.Kernel,
				write:   !isLoad,
				tracker: tr,
			})
		}

	case isa.BAR:
		s.arriveBarrier(r.ctaSlot)

	case isa.EXIT:
		s.retireWarp(r)
	}
}

// arriveBarrier counts a warp into its CTA barrier and releases the CTA
// when all live warps have arrived.
func (s *SM) arriveBarrier(slot int) {
	c := s.ctas[slot]
	c.atBarrier++
	if c.atBarrier < c.warpsLeft {
		return
	}
	c.atBarrier = 0
	s.releaseBarrier(c)
}

// releaseBarrier resumes every warp of c waiting at the barrier, marking
// each stale so its scheduler sees the transition.
func (s *SM) releaseBarrier(c *cta) {
	for _, r := range c.warpRefs {
		if r.w.State == warp.AtBarrier {
			r.w.ReleaseBarrier()
			s.markStale(r)
		}
	}
}

// retireWarp finalizes an exited warp and frees the CTA when it was the
// last one.
func (s *SM) retireWarp(r *resident) {
	c := s.ctas[r.ctaSlot]
	c.warpsLeft--
	if c.warpsLeft == 0 {
		s.freeCTA(r.ctaSlot)
		return
	}
	// A barrier may now be satisfiable with fewer live warps.
	if c.atBarrier >= c.warpsLeft && c.atBarrier > 0 {
		c.atBarrier = 0
		s.releaseBarrier(c)
	}
}

// newTracker returns a tracker for a load of lines lines into r's reg,
// reusing a recycled one when the pool has any.
func (s *SM) newTracker(r *resident, reg int8, lines int) *loadTracker {
	var tr *loadTracker
	if n := len(s.freeTrackers); n > 0 {
		tr = s.freeTrackers[n-1]
		s.freeTrackers[n-1] = nil
		s.freeTrackers = s.freeTrackers[:n-1]
	} else {
		tr = new(loadTracker)
	}
	*tr = loadTracker{res: r, reg: reg, remaining: lines}
	return tr
}

// lineDone retires one line of tr's load. The last line writes the
// register back, wakes the warp and recycles the tracker, poisoned with a
// nil res so a stale reference trips the simassert check here (and
// dereferences nil in the default build) instead of writing back into
// whichever load reuses it.
//
//simlint:wakehook
func (s *SM) lineDone(tr *loadTracker) {
	if assert.Enabled && (tr.res == nil || tr.remaining <= 0) {
		assert.Failf("sm %d: line completion on a recycled load tracker", s.ID)
	}
	tr.remaining--
	if tr.remaining > 0 {
		return
	}
	tr.res.w.Writeback(tr.reg, true)
	s.markStale(tr.res)
	*tr = loadTracker{}
	s.freeTrackers = append(s.freeTrackers, tr)
}

// pumpMemQueue services the head of the LD/ST line queue: one L1 access
// per cycle.
func (s *SM) pumpMemQueue(now int64) {
	if s.memQ.Len() == 0 {
		return
	}
	op := *s.memQ.At(0)
	la := s.l1.LineAddr(op.addr)

	if op.write {
		// Write-through no-allocate: account the L1 lookup and always
		// forward downstream.
		if !s.sub.Submit(memreq.Request{LineAddr: la, SM: s.ID, Kernel: op.kernel, Write: true, Issued: now}, now) {
			return // interconnect saturated; retry next cycle
		}
		s.l1.Access(op.addr, true)
		s.memQ.Pop()
		return
	}

	// A genuine miss needs an interconnect slot; if none is available and
	// the access cannot hit or merge, stall before touching cache state.
	if !s.sub.CanAccept() && !s.l1.Probe(op.addr) && !s.l1.HasMSHR(op.addr) {
		return
	}

	switch s.l1.Access(op.addr, false) {
	case cache.Hit:
		s.schedule(now, int64(s.cfg.L1.HitLatency), wbEvent{tracker: op.tracker})
		s.memQ.Pop()
	case cache.Miss:
		// The L1 miss (MSHR just allocated) is the span's root: sampling
		// is decided here, purely from (line, cycle, kernel) identity.
		s.sub.Submit(memreq.Request{
			LineAddr: la, SM: s.ID, Kernel: op.kernel, Issued: now,
			Span: s.sub.Spans.Begin(la, s.ID, op.kernel, now),
		}, now)
		s.waiters.Add(la, op.tracker)
		s.memQ.Pop()
	case cache.MissMerged:
		s.waiters.Add(la, op.tracker)
		s.memQ.Pop()
	case cache.ReservationFail:
		// MSHRs exhausted: structural stall, retry next cycle.
	}
}

// OnReply delivers a returning global-load line to the SM.
func (s *SM) OnReply(lineAddr uint64) {
	s.l1.Fill(lineAddr)
	for _, tr := range s.waiters.Take(lineAddr) {
		if tr != nil {
			s.lineDone(tr)
		}
	}
}
