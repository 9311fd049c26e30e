//go:build schedref

package sm

import (
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

type smPair struct {
	ref, rdy       *SM
	refSub, rdySub *mem.Subsystem
}

func newPair(cfg config.GPU, kind SchedulerKind) *smPair {
	refSub, rdySub := mem.New(cfg), mem.New(cfg)
	p := &smPair{
		ref: New(0, cfg, refSub), rdy: New(0, cfg, rdySub),
		refSub: refSub, rdySub: rdySub,
	}
	p.ref.Sched, p.rdy.Sched = kind, kind
	return p
}

func (p *smPair) launch(t *testing.T, kernel int, spec *kernels.Spec, base uint64, gridID int) bool {
	t.Helper()
	a := p.ref.Launch(kernel, spec, base, gridID)
	b := p.rdy.Launch(kernel, spec, base, gridID)
	if a != b {
		t.Fatalf("launch divergence for kernel %d grid %d: ref=%v ready-set=%v", kernel, gridID, a, b)
	}
	return a
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
		p.ref.CycleRef(now)
		p.rdy.Cycle(now, nil)
		for _, r := range p.refSub.Tick(now) {
			p.ref.OnReply(r.LineAddr)
		}
		for _, r := range p.rdySub.Tick(now) {
			p.rdy.OnReply(r.LineAddr)
		}
		if digest.Of(p.ref) == digest.Of(p.rdy) {
			continue
		}
		// Localize the divergence: hash each canonical section separately
		// and name the first that differs.
		sr, sn := p.ref.DigestSections(), p.rdy.DigestSections()
		section := "(chain)"
		for i := range sr {
			if sr[i].Sum != sn[i].Sum {
				section = sr[i].Name
				break
			}
		}
		t.Fatalf("cycle %d: scheduler divergence in section %q\nref stats:       %+v\nready-set stats: %+v\nref state: %s\nrdy state: %s",
			now, section, p.ref.Stats(), p.rdy.Stats(), p.ref.DebugWarpStates(now), p.rdy.DebugWarpStates(now))
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
	p.ref.OnCTAComplete = hook(p.ref)
	p.rdy.OnCTAComplete = hook(p.rdy)
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
	for _, s := range []*SM{p.ref, p.rdy} {
		q := Unlimited()
		q.CTAs = 3
		s.SetQuota(0, q)
		s.SetQuota(1, q)
	}
	g0 := p.fill(t, 0, mm, base[0], 0)
	g1 := p.fill(t, 1, hot, base[1], 0)
	p.run(t, 0, 3000)

	// Mid-run halt with loads in flight: the halted kernel's residents
	// drop out of the scheduler lists while its trackers keep draining.
	halted[0] = true
	p.ref.HaltKernel(0)
	p.rdy.HaltKernel(0)
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
	for _, s := range []*SM{p.ref, p.rdy} {
		q := Unlimited()
		q.CTAs = 2
		s.SetQuota(0, q)
		s.SetQuota(1, q)
	}
	p.fill(t, 0, hot, base[0], 0)
	p.fill(t, 1, mvp, base[1], 0)
	p.run(t, 0, 8000)
}
