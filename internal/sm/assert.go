package sm

import (
	"warpedslicer/internal/assert"
	"warpedslicer/internal/isa"
	"warpedslicer/internal/warp"
)

// checkInvariants verifies, at the end of every cycle, the conservation
// and bound invariants the SM maintains by construction. It runs only
// under the simassert build tag (the call in Cycle is gated on
// assert.Enabled); the default build compiles it out entirely.
func (s *SM) checkInvariants() {
	st := &s.stats

	// Issue-slot conservation: every scheduler slot of every cycle is
	// accounted to exactly one of issued or a stall class (PR 3's Figure 7
	// attribution depends on this partition being exact).
	stalls := st.StallMem + st.StallRAW + st.StallExec + st.StallIBuf + st.StallIdle
	if st.Slots != st.Issued+stalls {
		assert.Failf("sm %d cycle %d: issue-slot conservation broken: slots=%d issued=%d stalls=%d",
			s.ID, st.Cycles, st.Slots, st.Issued, stalls)
	}

	// Per-kernel stall attribution sums exactly to the SM-wide classes,
	// and per-kernel warp instructions sum to the issued total.
	var mem, raw, exec, ibuf, warpInsts uint64
	for k := 0; k < MaxKernels; k++ {
		ks := &st.PerKernel[k]
		mem += ks.StallMem
		raw += ks.StallRAW
		exec += ks.StallExec
		ibuf += ks.StallIBuf
		warpInsts += ks.WarpInsts
	}
	if mem != st.StallMem || raw != st.StallRAW || exec != st.StallExec || ibuf != st.StallIBuf {
		assert.Failf("sm %d cycle %d: per-kernel stall sums diverge from SM-wide classes: "+
			"mem %d/%d raw %d/%d exec %d/%d ibuf %d/%d",
			s.ID, st.Cycles, mem, st.StallMem, raw, st.StallRAW, exec, st.StallExec, ibuf, st.StallIBuf)
	}
	if warpInsts != st.Issued {
		assert.Failf("sm %d cycle %d: per-kernel warp insts %d != issued %d",
			s.ID, st.Cycles, warpInsts, st.Issued)
	}

	// Occupancy never exceeds the Table I limits Launch enforces.
	if s.usedRegs > s.cfg.SM.Registers || s.usedShm > s.cfg.SM.SharedMemBytes ||
		s.usedThreads > s.cfg.SM.MaxThreads || s.usedCTAs > s.cfg.SM.MaxCTAs {
		assert.Failf("sm %d cycle %d: occupancy exceeds Table I limits: regs %d/%d shm %d/%d threads %d/%d ctas %d/%d",
			s.ID, st.Cycles, s.usedRegs, s.cfg.SM.Registers, s.usedShm, s.cfg.SM.SharedMemBytes,
			s.usedThreads, s.cfg.SM.MaxThreads, s.usedCTAs, s.cfg.SM.MaxCTAs)
	}

	// Per-kernel resource accounting sums to the SM-wide pools.
	var used Quota
	for k := 0; k < MaxKernels; k++ {
		used.Regs += s.kUsed[k].Regs
		used.Shm += s.kUsed[k].Shm
		used.Threads += s.kUsed[k].Threads
		used.CTAs += s.kUsed[k].CTAs
	}
	if used.Regs != s.usedRegs || used.Shm != s.usedShm ||
		used.Threads != s.usedThreads || used.CTAs != s.usedCTAs {
		assert.Failf("sm %d cycle %d: per-kernel usage %+v diverges from SM pools {%d %d %d %d}",
			s.ID, st.Cycles, used, s.usedRegs, s.usedShm, s.usedThreads, s.usedCTAs)
	}

	// The LD/ST line ring respects its bound and so never grew.
	if s.memQ.Len() > memQCap || s.memQ.Cap() != memQCap {
		assert.Failf("sm %d cycle %d: memQ holds %d in a ring of %d, bound %d",
			s.ID, st.Cycles, s.memQ.Len(), s.memQ.Cap(), memQCap)
	}

	// Ready-set bookkeeping mirrors ground truth: the per-scheduler lists
	// partition s.warps, hold no dropped residents, and each scheduler's
	// ready count matches a recount of its cached classifications. The
	// greedy warp, when tracked, must still be resident in its list.
	total := 0
	for i := range s.scheds {
		q := &s.scheds[i]
		total += len(q.list)
		ready := 0
		greedyListed := q.greedy == nil
		for _, r := range q.list {
			if r.gone {
				assert.Failf("sm %d cycle %d: sched %d lists a dropped resident (kernel %d)",
					s.ID, st.Cycles, i, r.w.Kernel)
			}
			if r.sched != i {
				assert.Failf("sm %d cycle %d: sched %d lists a resident assigned to sched %d",
					s.ID, st.Cycles, i, r.sched)
			}
			if r.cls == warp.BlockNone {
				ready++
			}
			if r == q.greedy {
				greedyListed = true
			}
		}
		if ready != q.ready {
			assert.Failf("sm %d cycle %d: sched %d ready count %d != recount %d",
				s.ID, st.Cycles, i, q.ready, ready)
		}
		if !greedyListed {
			assert.Failf("sm %d cycle %d: sched %d greedy warp not in its list", s.ID, st.Cycles, i)
		}
	}
	if total != len(s.warps) {
		assert.Failf("sm %d cycle %d: scheduler lists hold %d residents, SM holds %d",
			s.ID, st.Cycles, total, len(s.warps))
	}

	// Cycle-class conservation: classify runs once per cycle and lands
	// every cycle in exactly one class, so the four classes sum to Cycles.
	// The fast-forward opportunity fractions in figengineprof divide by
	// this total and depend on the partition being exact.
	classes := st.CycIssuing + st.CycStallKnown + st.CycStallUnknown + st.CycIdle
	if classes != uint64(st.Cycles) {
		assert.Failf("sm %d cycle %d: cycle-class conservation broken: "+
			"issuing=%d known=%d unknown=%d idle=%d sum=%d",
			s.ID, st.Cycles, st.CycIssuing, st.CycStallKnown, st.CycStallUnknown, st.CycIdle, classes)
	}

	// Every outstanding-load line has exactly one L1 MSHR entry (allocated
	// on Miss, freed by the Fill in OnReply), so the waiter table and the
	// MSHR population track each other cycle by cycle. classify leans on
	// this: it treats waiters.Len() as "distinct miss lines outstanding"
	// when deciding whether all wake-ups are known.
	if s.waiters.Len() != s.l1.MSHRInUse() {
		assert.Failf("sm %d cycle %d: waiters %d != L1 MSHRs in use %d",
			s.ID, st.Cycles, s.waiters.Len(), s.l1.MSHRInUse())
	}
}

// checkReplay re-runs, without side effects, the walk a replayed GTO slot
// skipped (see the fast path in issueFrom): no ready warp may pass the
// exit-load check and unitFree, and the walk's attribution must equal the
// cached one. It runs on every replayed slot under the simassert build
// tag, so every experiment test run with -tags simassert checks the
// replay bound against ground truth.
func (s *SM) checkReplay(q *schedQ, now int64) {
	for _, r := range q.list {
		if r.cls != warp.BlockNone || r.in.Kind == isa.EXIT && r.w.OutstandingLoads > 0 {
			continue
		}
		if s.unitFree(r.in, now) {
			assert.Failf("sm %d cycle %d: replayed slot skips a ready warp (kernel %d, %s) whose unit is free "+
				"(retryAt %d, memQ %d, retryMemQ %d)",
				s.ID, now, r.w.Kernel, r.in, q.retryAt, s.memQ.Len(), q.retryMemQ)
		}
	}
	if cls, k := s.attribution(q, q.greedy, 0); cls != q.attrCls || k != q.attrK {
		assert.Failf("sm %d cycle %d: replayed attribution (class %d, kernel %d) != walk (class %d, kernel %d)",
			s.ID, now, q.attrCls, q.attrK, cls, k)
	}
}
