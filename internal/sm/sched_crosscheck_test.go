//go:build schedref

package sm

import (
	"math"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
)

// The cross-check drives two SMs in lockstep over the same workload: one
// through the reference full-rescan scheduler (CycleRef), one through the
// ready-set scheduler (Cycle), each with its own memory subsystem. Every
// cycle the two SMs' canonical state digests must match — the digest walk
// covers residents, warp scoreboards, CTA slots, allocator, execution
// pipes, and statistics (internal/sm/digest.go), so it pins the two issue
// loops to identical decisions far more tightly than the old full-Stats
// comparison. On a mismatch the per-section digests localize which part
// of the SM diverged first. SchedFastSlots is excluded by the digest
// contract: it counts the ready-set path's cache hits, which the
// reference path by definition never takes.
//
// A third SM, narrow, runs the ready-set scheduler with its retry bound
// forced to the past before every cycle, so its fast path replays only
// slots with no ready warp. It must stay digest-identical too, and its
// SchedFastSlots is the count the ready == 0 path alone gives, which the
// widened-path cases compare the ready-set SM against.

type smPair struct {
	ref, rdy, narrow          *SM
	refSub, rdySub, narrowSub *mem.Subsystem
}

func newPair(cfg config.GPU, kind SchedulerKind) *smPair {
	refSub, rdySub, narrowSub := mem.New(cfg), mem.New(cfg), mem.New(cfg)
	p := &smPair{
		ref: New(0, cfg, refSub), rdy: New(0, cfg, rdySub), narrow: New(0, cfg, narrowSub),
		refSub: refSub, rdySub: rdySub, narrowSub: narrowSub,
	}
	p.ref.Sched, p.rdy.Sched, p.narrow.Sched = kind, kind, kind
	return p
}

func (p *smPair) sms() []*SM { return []*SM{p.ref, p.rdy, p.narrow} }

func (p *smPair) launch(t *testing.T, kernel int, spec *kernels.Spec, base uint64, gridID int) bool {
	t.Helper()
	a := p.ref.Launch(kernel, spec, base, gridID)
	b := p.rdy.Launch(kernel, spec, base, gridID)
	c := p.narrow.Launch(kernel, spec, base, gridID)
	if a != b || a != c {
		t.Fatalf("launch divergence for kernel %d grid %d: ref=%v ready-set=%v narrow=%v", kernel, gridID, a, b, c)
	}
	return a
}

// quota bounds each kernel slot in ks to ctas resident CTAs on every SM
// (intra-SM slicing), so all the kernels stay resident together.
func (p *smPair) quota(ctas int, ks ...int) {
	for _, s := range p.sms() {
		q := Unlimited()
		q.CTAs = ctas
		for _, k := range ks {
			s.SetQuota(k, q)
		}
	}
}

// fill launches CTAs of spec until the SM refuses one, returning the next
// unused grid ID.
func (p *smPair) fill(t *testing.T, kernel int, spec *kernels.Spec, base uint64, from int) int {
	t.Helper()
	g := from
	for p.launch(t, kernel, spec, base, g) {
		g++
	}
	return g
}

func (p *smPair) run(t *testing.T, from, to int64) {
	t.Helper()
	for now := from; now < to; now++ {
		for i := range p.narrow.scheds {
			p.narrow.scheds[i].retryAt = math.MinInt64
		}
		p.ref.CycleRef(now)
		p.rdy.Cycle(now, nil)
		p.narrow.Cycle(now, nil)
		for _, r := range p.refSub.Tick(now) {
			p.ref.OnReply(r.LineAddr)
		}
		for _, r := range p.rdySub.Tick(now) {
			p.rdy.OnReply(r.LineAddr)
		}
		for _, r := range p.narrowSub.Tick(now) {
			p.narrow.OnReply(r.LineAddr)
		}
		want := digest.Of(p.ref)
		got := p.rdy
		if digest.Of(got) == want {
			if got = p.narrow; digest.Of(got) == want {
				continue
			}
		}
		// Localize the divergence: hash each canonical section separately
		// and name the first that differs.
		sr, sn := p.ref.DigestSections(), got.DigestSections()
		section := "(chain)"
		for i := range sr {
			if sr[i].Sum != sn[i].Sum {
				section = sr[i].Name
				break
			}
		}
		name := "ready-set"
		if got == p.narrow {
			name = "narrow"
		}
		t.Fatalf("cycle %d: %s scheduler divergence in section %q\nref stats: %+v\n%s stats: %+v\nref state: %s\n%s state: %s",
			now, name, section, p.ref.Stats(), name, got.Stats(), p.ref.DebugWarpStates(now), name, got.DebugWarpStates(now))
	}
}

// relaunch wires both SMs to replace completed CTAs of their kernel with
// the next grid ID, so the cross-check covers mid-run retirement,
// replacement launches, and the scheduler-assignment counter.
func (p *smPair) relaunch(t *testing.T, specs map[int]*kernels.Spec, base map[int]uint64, halted map[int]bool) {
	// Each SM gets its own grid counters so a divergence cannot mask
	// itself by sharing launch state.
	hook := func(s *SM) func(int, int, int) {
		next := map[int]int{}
		return func(_, kernel, gridID int) {
			if halted[kernel] {
				return
			}
			if next[kernel] <= gridID {
				next[kernel] = gridID + 1
			}
			g := next[kernel]
			next[kernel]++
			s.Launch(kernel, specs[kernel], base[kernel], g)
		}
	}
	for _, s := range p.sms() {
		s.OnCTAComplete = hook(s)
	}
}

// widened reports the ready-set SM's fast-path slots against the narrow
// SM's, failing the test unless replays with ready warps added some.
func (p *smPair) widened(t *testing.T) {
	t.Helper()
	rdy, narrow := p.rdy.Stats(), p.narrow.Stats()
	if rdy.SchedFastSlots <= narrow.SchedFastSlots {
		t.Fatalf("fast path did not widen: %d fast slots with ready-warp replay, %d without (of %d slots)",
			rdy.SchedFastSlots, narrow.SchedFastSlots, rdy.Slots)
	}
	t.Logf("fast slots: %d with ready-warp replay, %d without (of %d slots)",
		rdy.SchedFastSlots, narrow.SchedFastSlots, rdy.Slots)
}

func TestCrossCheckGTOSingleKernel(t *testing.T) {
	cfg := config.Baseline()
	spec := kernels.ByAbbr("MM")
	p := newPair(cfg, GTO)
	p.relaunch(t, map[int]*kernels.Spec{0: spec}, map[int]uint64{0: 1 << 40}, map[int]bool{})
	g := p.fill(t, 0, spec, 1<<40, 0)
	_ = g
	p.run(t, 0, 12000)
}

func TestCrossCheckGTOCoRunWithHalt(t *testing.T) {
	cfg := config.Baseline()
	mm, hot := kernels.ByAbbr("MM"), kernels.ByAbbr("HOT")
	specs := map[int]*kernels.Spec{0: mm, 1: hot}
	base := map[int]uint64{0: 1 << 40, 1: 2 << 40}
	halted := map[int]bool{}
	p := newPair(cfg, GTO)
	p.relaunch(t, specs, base, halted)
	// Intra-SM slicing: bound each kernel so both stay resident.
	p.quota(3, 0, 1)
	g0 := p.fill(t, 0, mm, base[0], 0)
	g1 := p.fill(t, 1, hot, base[1], 0)
	p.run(t, 0, 3000)

	// Mid-run halt with loads in flight: the halted kernel's residents
	// drop out of the scheduler lists while its trackers keep draining.
	halted[0] = true
	for _, s := range p.sms() {
		s.HaltKernel(0)
	}
	// Replacement CTAs after the halt exercise the monotonic assignment
	// counter on a shrunken warp set.
	g1 = p.fill(t, 1, hot, base[1], g1)
	_, _ = g0, g1
	p.run(t, 3000, 9000)
}

func TestCrossCheckRRCoRun(t *testing.T) {
	cfg := config.Baseline()
	hot, mvp := kernels.ByAbbr("HOT"), kernels.ByAbbr("MVP")
	specs := map[int]*kernels.Spec{0: hot, 1: mvp}
	base := map[int]uint64{0: 1 << 40, 1: 2 << 40}
	p := newPair(cfg, RR)
	p.relaunch(t, specs, base, map[int]bool{})
	p.quota(2, 0, 1)
	p.fill(t, 0, hot, base[0], 0)
	p.fill(t, 1, mvp, base[1], 0)
	p.run(t, 0, 8000)
}

// TestCrossCheckGTOQueueBound co-runs a compute kernel with a scattered
// memory kernel under CTA quotas, so ready LDG/STG warps wait on a full
// LD/ST line queue and the fast path replays slots on the queue bound.
func TestCrossCheckGTOQueueBound(t *testing.T) {
	cfg := config.Baseline()
	mm, bfs := kernels.ByAbbr("MM"), kernels.ByAbbr("BFS")
	specs := map[int]*kernels.Spec{0: mm, 1: bfs}
	base := map[int]uint64{0: 1 << 40, 1: 2 << 40}
	p := newPair(cfg, GTO)
	p.relaunch(t, specs, base, map[int]bool{})
	p.quota(3, 0, 1)
	p.fill(t, 0, mm, base[0], 0)
	p.fill(t, 1, bfs, base[1], 0)
	p.run(t, 0, 8000)
	p.widened(t)
}

// TestCrossCheckGTOUnitBound co-runs two SFU-heavy kernels, so ready
// warps wait on a busy SFU and the fast path replays slots until the
// retry cycle.
func TestCrossCheckGTOUnitBound(t *testing.T) {
	cfg := config.Baseline()
	img, blk := kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")
	specs := map[int]*kernels.Spec{0: img, 1: blk}
	base := map[int]uint64{0: 1 << 40, 1: 2 << 40}
	p := newPair(cfg, GTO)
	p.relaunch(t, specs, base, map[int]bool{})
	p.quota(3, 0, 1)
	p.fill(t, 0, img, base[0], 0)
	p.fill(t, 1, blk, base[1], 0)
	p.run(t, 0, 8000)
	p.widened(t)
}
