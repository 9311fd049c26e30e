package sm

import (
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/isa"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/warp"
)

func newSM(t *testing.T) (*SM, config.GPU) {
	t.Helper()
	cfg := config.Baseline()
	sub := mem.New(cfg)
	return New(0, cfg, sub), cfg
}

// runSM steps the SM and its memory subsystem together.
func runSM(s *SM, sub *mem.Subsystem, cycles int64) {
	for now := int64(0); now < cycles; now++ {
		s.Cycle(now, nil)
		for _, r := range sub.Tick(now) {
			s.OnReply(r.LineAddr)
		}
	}
}

func TestLaunchConsumesResources(t *testing.T) {
	s, _ := newSM(t)
	spec := kernels.ByAbbr("HOT")
	if !s.Launch(0, spec, 1<<40, 0) {
		t.Fatal("launch failed on empty SM")
	}
	u := s.Used()
	if u.Regs != spec.RegsPerCTA() || u.Shm != spec.SharedMemPerTA ||
		u.Threads != spec.BlockDim || u.CTAs != 1 {
		t.Fatalf("used = %+v, inconsistent with one HOT CTA", u)
	}
	if s.ResidentWarps() != spec.WarpsPerCTA(32) {
		t.Fatalf("resident warps = %d, want %d", s.ResidentWarps(), spec.WarpsPerCTA(32))
	}
}

func TestLaunchStopsAtLimit(t *testing.T) {
	s, cfg := newSM(t)
	spec := kernels.ByAbbr("BLK") // register-limited to 4
	n := 0
	for s.Launch(0, spec, 1<<40, n) {
		n++
		if n > 10 {
			t.Fatal("launch never refused")
		}
	}
	want := spec.MaxCTAs(cfg.SM.Registers, cfg.SM.SharedMemBytes, cfg.SM.MaxThreads, cfg.SM.MaxCTAs)
	if n != want {
		t.Fatalf("launched %d CTAs, want %d", n, want)
	}
}

func TestQuotaEnforced(t *testing.T) {
	s, _ := newSM(t)
	spec := kernels.ByAbbr("IMG")
	q := Unlimited()
	q.CTAs = 3
	s.SetQuota(0, q)
	n := 0
	for s.Launch(0, spec, 1<<40, n) {
		n++
	}
	if n != 3 {
		t.Fatalf("launched %d, want quota 3", n)
	}
	s.ClearQuotas()
	if !s.Launch(0, spec, 1<<40, n) {
		t.Fatal("clearing quotas should re-enable launches")
	}
}

func TestZeroQuotaBlocksLaunch(t *testing.T) {
	s, _ := newSM(t)
	s.SetQuota(0, Quota{})
	if s.Launch(0, kernels.ByAbbr("IMG"), 1<<40, 0) {
		t.Fatal("zero quota should block launches")
	}
}

func TestAllowedRestriction(t *testing.T) {
	s, _ := newSM(t)
	s.SetAllowed(map[int]bool{1: true})
	if s.Launch(0, kernels.ByAbbr("IMG"), 1<<40, 0) {
		t.Fatal("kernel 0 should be disallowed")
	}
	if !s.Launch(1, kernels.ByAbbr("IMG"), 1<<40, 0) {
		t.Fatal("kernel 1 should be allowed")
	}
	s.SetAllowed(nil)
	if !s.Launch(0, kernels.ByAbbr("IMG"), 2<<40, 1) {
		t.Fatal("nil allowed-set should allow all")
	}
}

func TestCTACompletionFreesResources(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	spec := kernels.ByAbbr("IMG")
	short := *spec
	short.Iterations = 5
	completed := 0
	s.OnCTAComplete = func(smID, kernel, gridID int) { completed++ }
	if !s.Launch(0, &short, 1<<40, 0) {
		t.Fatal("launch failed")
	}
	runSM(s, sub, 30000)
	if completed != 1 {
		t.Fatalf("completions = %d, want 1", completed)
	}
	if u := s.Used(); u.CTAs != 0 || u.Regs != 0 || u.Threads != 0 {
		t.Fatalf("resources not freed: %+v", u)
	}
	if !s.Idle() {
		t.Fatal("SM should be idle")
	}
}

func TestBarrierKernelCompletes(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	spec := kernels.ByAbbr("MM") // has BAR
	short := *spec
	short.Iterations = 5
	done := false
	s.OnCTAComplete = func(int, int, int) { done = true }
	s.Launch(0, &short, 1<<40, 0)
	runSM(s, sub, 60000)
	if !done {
		t.Fatal("barrier kernel CTA never completed (barrier deadlock?)")
	}
}

func TestHaltKernelReleasesEverything(t *testing.T) {
	s, _ := newSM(t)
	specA, specB := kernels.ByAbbr("IMG"), kernels.ByAbbr("DXT")
	s.Launch(0, specA, 1<<40, 0)
	s.Launch(0, specA, 1<<40, 1)
	s.Launch(1, specB, 2<<40, 0)
	s.HaltKernel(0)
	if s.ResidentCTAs(0) != 0 {
		t.Fatal("kernel 0 CTAs not released")
	}
	if s.ResidentCTAs(1) != 1 {
		t.Fatal("kernel 1 CTAs must survive")
	}
	u := s.Used()
	if u.Regs != specB.RegsPerCTA() {
		t.Fatalf("leaked registers: used=%d want=%d", u.Regs, specB.RegsPerCTA())
	}
}

func TestStatsAccumulate(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	s.Launch(0, kernels.ByAbbr("IMG"), 1<<40, 0)
	runSM(s, sub, 5000)
	st := s.Stats()
	if st.Cycles != 5000 {
		t.Fatalf("cycles = %d, want 5000", st.Cycles)
	}
	if st.PerKernel[0].WarpInsts == 0 || st.PerKernel[0].ThreadInsts == 0 {
		t.Fatal("no instructions recorded")
	}
	if st.ALUBusy == 0 {
		t.Fatal("IMG should exercise the ALU")
	}
	if st.Slots != uint64(cfg.SM.Schedulers)*5000 {
		t.Fatalf("slots = %d, want %d", st.Slots, cfg.SM.Schedulers*5000)
	}
	total := st.Issued + st.StallMem + st.StallRAW + st.StallExec + st.StallIBuf + st.StallIdle
	if total != st.Slots {
		t.Fatalf("slot accounting broken: %d != %d", total, st.Slots)
	}
}

func TestThreadInstsCountPartialWarps(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	spec := kernels.ByAbbr("LBM") // 120 threads: warps of 32,32,32,24
	short := *spec
	short.Iterations = 2
	s.Launch(0, &short, 1<<40, 0)
	runSM(s, sub, 100000)
	st := s.Stats()
	// Each warp executes Iterations*len(Body)+1 instructions; thread
	// counts differ between full and partial warps.
	perWarp := uint64(short.Iterations*len(short.Body) + 1)
	wantThread := perWarp * (32 + 32 + 32 + 24)
	if st.PerKernel[0].ThreadInsts != wantThread {
		t.Fatalf("thread insts = %d, want %d", st.PerKernel[0].ThreadInsts, wantThread)
	}
}

func TestGTOVersusRRBothProgress(t *testing.T) {
	for _, kind := range []SchedulerKind{GTO, RR} {
		cfg := config.Baseline()
		sub := mem.New(cfg)
		s := New(0, cfg, sub)
		s.Sched = kind
		s.Launch(0, kernels.ByAbbr("DXT"), 1<<40, 0)
		s.Launch(0, kernels.ByAbbr("DXT"), 1<<40, 1)
		runSM(s, sub, 3000)
		if s.Stats().PerKernel[0].WarpInsts == 0 {
			t.Fatalf("%v scheduler made no progress", kind)
		}
	}
}

func TestSchedulerKindString(t *testing.T) {
	if GTO.String() != "gto" || RR.String() != "rr" {
		t.Fatal("scheduler names wrong")
	}
}

func TestResidentCTAsPerKernel(t *testing.T) {
	s, _ := newSM(t)
	s.Launch(0, kernels.ByAbbr("IMG"), 1<<40, 0)
	s.Launch(1, kernels.ByAbbr("DXT"), 2<<40, 0)
	s.Launch(1, kernels.ByAbbr("DXT"), 2<<40, 1)
	if s.ResidentCTAs(0) != 1 || s.ResidentCTAs(1) != 2 {
		t.Fatalf("resident = %d/%d, want 1/2", s.ResidentCTAs(0), s.ResidentCTAs(1))
	}
	if s.KernelUsed(1).Threads != 2*64 {
		t.Fatalf("kernel 1 threads = %d, want 128", s.KernelUsed(1).Threads)
	}
}

func TestMixedKernelsShareSM(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	s.Launch(0, kernels.ByAbbr("IMG"), 1<<40, 0)
	s.Launch(1, kernels.ByAbbr("BLK"), 2<<40, 0)
	runSM(s, sub, 10000)
	st := s.Stats()
	if st.PerKernel[0].WarpInsts == 0 || st.PerKernel[1].WarpInsts == 0 {
		t.Fatalf("co-resident kernels did not both progress: %d / %d",
			st.PerKernel[0].WarpInsts, st.PerKernel[1].WarpInsts)
	}
}

func TestExitWaitsForOutstandingLoads(t *testing.T) {
	// A kernel whose last body op is a global load: the warp must not
	// exit (and the CTA must not free) while the load is in flight.
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	spec := *kernels.ByAbbr("LBM")
	spec.Iterations = 1
	done := false
	s.OnCTAComplete = func(int, int, int) { done = true }
	s.Launch(0, &spec, 1<<40, 0)
	// Without memory replies the loads never return; the CTA must stay
	// resident no matter how long we run the SM alone.
	for now := int64(0); now < 5000; now++ {
		s.Cycle(now, nil)
		// Deliberately do NOT tick the memory subsystem.
	}
	if done {
		t.Fatal("CTA completed with loads still in flight")
	}
	// Now service memory: the CTA completes.
	for now := int64(5000); now < 200000 && !done; now++ {
		s.Cycle(now, nil)
		for _, r := range sub.Tick(now) {
			s.OnReply(r.LineAddr)
		}
	}
	if !done {
		t.Fatal("CTA never completed after memory was serviced")
	}
}

func TestUsedNeverExceedsLimits(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	for _, spec := range kernels.Suite() {
		for s.Launch(0, spec, 1<<40, 0) {
		}
	}
	u := s.Used()
	if u.Regs > cfg.SM.Registers || u.Shm > cfg.SM.SharedMemBytes ||
		u.Threads > cfg.SM.MaxThreads || u.CTAs > cfg.SM.MaxCTAs {
		t.Fatalf("over-allocated: %+v", u)
	}
}

// TestPerKernelStallConservation pins the attribution invariant: with two
// kernels sharing one SM, every stalled issue slot of each class is charged
// to exactly one kernel, so per-kernel counters sum to the SM-wide class.
func TestPerKernelStallConservation(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	q := Unlimited()
	q.CTAs = 2
	s.SetQuota(0, q)
	s.SetQuota(1, q)
	for n := 0; s.Launch(0, kernels.ByAbbr("IMG"), 1<<40, n); n++ {
	}
	for n := 0; s.Launch(1, kernels.ByAbbr("BLK"), 2<<40, n); n++ {
	}
	runSM(s, sub, 20000)

	st := s.Stats()
	var mem, raw, exec, ibuf uint64
	for _, ks := range st.PerKernel {
		mem += ks.StallMem
		raw += ks.StallRAW
		exec += ks.StallExec
		ibuf += ks.StallIBuf
	}
	if mem != st.StallMem || raw != st.StallRAW || exec != st.StallExec || ibuf != st.StallIBuf {
		t.Fatalf("per-kernel sums (%d/%d/%d/%d) != SM-wide (%d/%d/%d/%d)",
			mem, raw, exec, ibuf, st.StallMem, st.StallRAW, st.StallExec, st.StallIBuf)
	}
	if mem+raw+exec+ibuf == 0 {
		t.Fatal("co-run recorded no attributable stalls; test is vacuous")
	}
	if st.PerKernel[0].StallMem+st.PerKernel[0].StallRAW+st.PerKernel[0].StallExec+st.PerKernel[0].StallIBuf == 0 ||
		st.PerKernel[1].StallMem+st.PerKernel[1].StallRAW+st.PerKernel[1].StallExec+st.PerKernel[1].StallIBuf == 0 {
		t.Fatal("stalls attributed to only one of the two resident kernels")
	}
}

// aluSpec builds a minimal compute kernel for scheduler unit tests:
// `body` controls the op mix, one warp per CTA at BlockDim 32.
func aluSpec(t *testing.T, abbr string, blockDim int, body []kernels.Op, iters int) *kernels.Spec {
	t.Helper()
	spec := &kernels.Spec{
		Name: "sched-test-" + abbr, Abbr: abbr,
		GridDim: 64, BlockDim: blockDim,
		RegsPerThread: 32, SharedMemPerTA: 1024,
		Body: body, Iterations: iters,
		Class: kernels.Compute,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec %s invalid: %v", abbr, err)
	}
	return spec
}

// TestGTOGreedyAtCycleZero pins the cycle-0 off-by-one fix: a warp that
// issued at cycle 0 must get greedy priority at cycle 1 over an older
// warp that has not issued yet. Before LastIssued was initialized to -1,
// the `last > 0` greedy guard treated "issued at cycle 0" as
// "never issued" and fell back to oldest-first.
func TestGTOGreedyAtCycleZero(t *testing.T) {
	cfg := config.Baseline()
	cfg.SM.SIMTWidth = cfg.SM.WarpSize // one cycle per warp: keeps units free each cycle
	sub := mem.New(cfg)
	s := New(0, cfg, sub)

	// Kernel A: LDS then a dependent ALU. Kernel B: independent ALUs.
	// Two warps each (BlockDim 64) so scheduler 1 holds A.w1 (older) and
	// B.w1. Cycle 0: scheduler 0's A.w0 takes the LD/ST unit, so A.w1 is
	// exec-blocked and B.w1 issues its first ALU. Cycle 1: both A.w1 and
	// B.w1 are issuable — greedy semantics must pick B.w1 (issued at 0).
	a := aluSpec(t, "GZA", 64, []kernels.Op{
		{Kind: isa.LDS},
		{Kind: isa.ALU, DependsPrev: true},
	}, 8)
	b := aluSpec(t, "GZB", 64, []kernels.Op{
		{Kind: isa.ALU},
		{Kind: isa.ALU},
	}, 8)
	if !s.Launch(0, a, 1<<40, 0) || !s.Launch(1, b, 2<<40, 0) {
		t.Fatal("launches failed")
	}
	aw1, bw1 := s.warps[1], s.warps[3]
	if aw1.sched != 1 || bw1.sched != 1 {
		t.Fatalf("warp-scheduler assignment changed: A.w1 sched %d, B.w1 sched %d, want 1,1",
			aw1.sched, bw1.sched)
	}
	runSM(s, sub, 2)
	if got := bw1.w.LastIssued; got != 1 {
		t.Fatalf("B.w1 LastIssued = %d, want 1 (greedy warp must keep priority at cycle 1)", got)
	}
	if got := aw1.w.LastIssued; got != -1 {
		t.Fatalf("A.w1 LastIssued = %d, want -1 (older warp must not beat the cycle-0 issuer)", got)
	}
}

// TestFreeCTANilsCompactionTail pins the retained-pointer fix: after a
// CTA retires, the tail of the s.warps backing array must be nil'd so the
// freed residents (and their warps) are unreachable.
func TestFreeCTANilsCompactionTail(t *testing.T) {
	sub := mem.New(config.Baseline())
	s := New(0, config.Baseline(), sub)
	spec := aluSpec(t, "NIL", 32, []kernels.Op{{Kind: isa.ALU}, {Kind: isa.ALU}}, 2)
	if !s.Launch(0, spec, 1<<40, 0) || !s.Launch(0, spec, 1<<40, 1) {
		t.Fatal("launches failed")
	}
	backing := s.warps
	origLen := len(backing)
	runSM(s, sub, 300)
	if done := s.Stats().PerKernel[0].CTAsDone; done != 2 {
		t.Fatalf("CTAs done = %d, want 2", done)
	}
	if len(s.warps) != 0 {
		t.Fatalf("warps still resident after both CTAs retired: %d", len(s.warps))
	}
	for i := len(s.warps); i < origLen; i++ {
		if backing[i] != nil {
			t.Fatalf("backing[%d] still references a retired warp (kernel %d): compaction tail not nil'd",
				i, backing[i].w.Kernel)
		}
	}
	for i := range s.scheds {
		if n := len(s.scheds[i].list); n != 0 {
			t.Fatalf("scheduler %d still lists %d residents after retirement", i, n)
		}
	}
}

// TestNewRejectsOversizedLatency pins the latency-clamp fix: a latency
// that cannot fit the writeback ring must be rejected at construction
// instead of being silently truncated at schedule time.
func TestNewRejectsOversizedLatency(t *testing.T) {
	cfg := config.Baseline()
	cfg.SM.SFULatency = 600 // > ring capacity of 512
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted SFULatency=600, which the 512-entry writeback ring cannot represent")
		}
	}()
	New(0, cfg, mem.New(cfg))
}

// TestLaunchAssignmentSurvivesHalt pins the scheduler-assignment fix:
// warp-to-scheduler assignment must come from a monotonic counter, not
// from len(s.warps), so replacement launches after a mid-run halt keep
// alternating instead of piling onto one parity.
func TestLaunchAssignmentSurvivesHalt(t *testing.T) {
	sub := mem.New(config.Baseline())
	s := New(0, config.Baseline(), sub)
	spec := aluSpec(t, "BAL", 32, []kernels.Op{{Kind: isa.ALU}, {Kind: isa.ALU}}, 64)
	if !s.Launch(0, spec, 1<<40, 0) || !s.Launch(1, spec, 2<<40, 0) {
		t.Fatal("launches failed")
	}
	s.HaltKernel(0) // removes the scheduler-0 warp; len(s.warps) is now 1
	if !s.Launch(2, spec, 3<<40, 0) {
		t.Fatal("relaunch failed")
	}
	r := s.warps[len(s.warps)-1]
	if r.w.Kernel != 2 {
		t.Fatalf("last resident belongs to kernel %d, want 2", r.w.Kernel)
	}
	if r.sched != 0 {
		t.Fatalf("replacement warp assigned to scheduler %d, want 0: "+
			"a len(warps)-based rule piles replacements onto the surviving parity", r.sched)
	}
	for i := range s.scheds {
		if n := len(s.scheds[i].list); n != 1 {
			t.Fatalf("scheduler %d holds %d warps, want 1 (balanced)", i, n)
		}
	}
}

// TestHaltKernelWithInFlightMemory pins that halting a kernel while its
// loads are outstanding drains the orphaned trackers without corrupting
// the surviving kernel, and that the waiters==MSHR invariant (which
// classify and the simassert build rely on) holds through the halt.
func TestHaltKernelWithInFlightMemory(t *testing.T) {
	cfg := config.Baseline()
	sub := mem.New(cfg)
	s := New(0, cfg, sub)
	q := Unlimited()
	q.CTAs = 2
	s.SetQuota(0, q)
	s.SetQuota(1, q)
	mvp, hot := kernels.ByAbbr("MVP"), kernels.ByAbbr("HOT")
	for g := 0; s.Launch(0, mvp, 1<<40, g); g++ {
	}
	for g := 0; s.Launch(1, hot, 2<<40, g); g++ {
	}

	checkWaiters := func(now int64) {
		if s.waiters.Len() != s.l1.MSHRInUse() {
			t.Fatalf("cycle %d: waiters %d != L1 MSHRs in use %d", now, s.waiters.Len(), s.l1.MSHRInUse())
		}
	}

	// Run until the memory kernel has loads in flight.
	now := int64(0)
	for ; now < 20000 && s.waiters.Len() == 0; now++ {
		s.Cycle(now, nil)
		for _, r := range sub.Tick(now) {
			s.OnReply(r.LineAddr)
		}
		checkWaiters(now)
	}
	if s.waiters.Len() == 0 {
		t.Fatal("MVP never put a load in flight")
	}

	s.HaltKernel(0)
	checkWaiters(now)
	if got := s.ResidentCTAs(0); got != 0 {
		t.Fatalf("halted kernel still holds %d CTAs", got)
	}
	hotBefore := s.Stats().PerKernel[1]
	mvpInsts := s.Stats().PerKernel[0].WarpInsts

	// Drain: in-flight replies to halted warps must complete harmlessly
	// while the surviving kernel keeps issuing.
	sawDrain := false
	for end := now + 20000; now < end; now++ {
		s.Cycle(now, nil)
		for _, r := range sub.Tick(now) {
			s.OnReply(r.LineAddr)
		}
		checkWaiters(now)
		if s.waiters.Len() == 0 {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("orphaned load trackers never drained after the halt")
	}
	st := s.Stats()
	if st.PerKernel[0].WarpInsts != mvpInsts {
		t.Fatalf("halted kernel kept issuing: %d -> %d warp insts", mvpInsts, st.PerKernel[0].WarpInsts)
	}
	if st.PerKernel[1].WarpInsts <= hotBefore.WarpInsts {
		t.Fatalf("surviving kernel stopped issuing after the halt: %d -> %d warp insts",
			hotBefore.WarpInsts, st.PerKernel[1].WarpInsts)
	}
}

// TestLoadTrackerRecycledOnLastLine pins the tracker recycling rule: the
// tracker of a load returns to the SM's pool when its last line completes,
// poisoned (res nil), and the next load reuses it with fresh fields.
func TestLoadTrackerRecycledOnLastLine(t *testing.T) {
	s, _ := newSM(t)
	r := &resident{w: &warp.Warp{}}
	tr := s.newTracker(r, 3, 2)
	s.lineDone(tr)
	if len(s.freeTrackers) != 0 || tr.res != r || tr.remaining != 1 {
		t.Fatalf("tracker recycled before its last line: %+v", *tr)
	}
	s.lineDone(tr)
	if len(s.freeTrackers) != 1 || tr.res != nil || tr.remaining != 0 {
		t.Fatalf("finished tracker not recycled poisoned: pool %d, %+v", len(s.freeTrackers), *tr)
	}
	if again := s.newTracker(r, 5, 4); again != tr || again.res != r || again.reg != 5 || again.remaining != 4 {
		t.Fatalf("next load did not reuse the recycled tracker: %+v", *again)
	}
}
