package sm

import (
	"slices"

	"warpedslicer/internal/digest"
	"warpedslicer/internal/queue"
)

// The SM digests as named sections so the divergence bisector can point
// inside the SM, not just at it. The walk covers architectural state
// only:
//
//   - The derived scheduler caches are excluded — schedQ.list/staleQ/
//     greedy/ready/attr*/retryAt/retryMemQ and the per-resident
//     cls/in/stale cache are reconstructible from warp and unit state
//     (resyncSched and the next walk do exactly that),
//     and excluding them keeps the reference rescan scheduler (CycleRef)
//     and the ready-set scheduler digest-identical, which is what the
//     schedref cross-check compares. schedQ.rrNext stays in: the
//     round-robin cursor is genuinely architectural (both scheduler
//     implementations advance it).
//   - Stats.SchedFastSlots is excluded for the same reason: it counts
//     ready-set cache hits, which the reference path by definition never
//     takes. It is the last entry of the Stats field list; every other
//     entry, and every KernelStats entry, is deterministic and digested.
//   - cta.warpRefs is excluded (derived: the residents whose ctaSlot
//     points at the CTA).
//   - Pure scheduler wake-up ring events and the warp i-buffer are
//     excluded (ready-set issue-path bookkeeping and prefetch cache; see
//     digestExec and warp.DigestInto).
//
// See DESIGN.md "The canonical-state traversal contract".

// digestWarps covers the resident warp set in launch order plus the
// launch counters.
func (s *SM) digestWarps(h *digest.Hasher) {
	h.Int(s.warpSeq)
	h.I64(s.launchStamp)
	h.Int(len(s.warps))
	for _, r := range s.warps {
		h.Int(r.sched)
		h.Int(r.ctaSlot)
		h.Int(r.threads)
		h.Bool(r.gone)
		r.w.DigestInto(h)
	}
}

// digestCTAs covers the CTA slot table.
func (s *SM) digestCTAs(h *digest.Hasher) {
	h.Int(len(s.ctas))
	for _, c := range s.ctas {
		if c == nil {
			h.Bool(false)
			continue
		}
		h.Bool(true)
		h.Int(c.kernel)
		h.Int(c.gridID)
		h.Int(c.regs)
		h.Int(c.shm)
		h.Int(c.threads)
		h.Int(c.warpsLeft)
		h.Int(c.atBarrier)
		h.Int(c.numWarps)
		h.Bool(c.active)
	}
}

// digestSched covers the scheduling policy and the architectural
// round-robin cursors (the ready-set caches are derived and excluded).
func (s *SM) digestSched(h *digest.Hasher) {
	h.U64(uint64(s.Sched))
	h.Int(len(s.scheds))
	for i := range s.scheds {
		h.Int(s.scheds[i].rrNext)
	}
}

// digestAlloc covers resource allocation and partition state: usage
// integrals' inputs, per-kernel quotas and usage, and the spatial
// allow-list.
func (s *SM) digestAlloc(h *digest.Hasher) {
	h.Int(s.usedRegs)
	h.Int(s.usedShm)
	h.Int(s.usedThreads)
	h.Int(s.usedCTAs)
	h.Bool(s.hasQuota)
	for k := 0; k < MaxKernels; k++ {
		digestQuota(h, s.quotas[k])
		digestQuota(h, s.kUsed[k])
	}
	if s.allowed == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	keys := make([]int, 0, len(s.allowed))
	for k := range s.allowed {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h.Int(len(keys))
	for _, k := range keys {
		h.Int(k)
		h.Bool(s.allowed[k])
	}
}

func digestQuota(h *digest.Hasher, q Quota) {
	h.Int(q.Regs)
	h.Int(q.Shm)
	h.Int(q.Threads)
	h.Int(q.CTAs)
}

// digestExec covers the execution back end: functional-unit timing, the
// LD/ST line-op ring, the scheduled writeback/wake ring, and the
// per-line load waiters in sorted order. Residents inside events are
// identified by their unique launch stamp (warp.Age), never by pointer.
func (s *SM) digestExec(h *digest.Hasher) {
	h.Int(len(s.aluFreeAt))
	for _, v := range s.aluFreeAt {
		h.I64(v)
	}
	h.I64(s.sfuFreeAt)
	h.I64(s.ldstFreeAt)

	h.Int(s.memQ.Len())
	for i := 0; i < s.memQ.Len(); i++ {
		op := s.memQ.At(i)
		h.U64(op.addr)
		h.Int(op.kernel)
		h.Bool(op.write)
		digestTracker(h, op.tracker)
	}

	// Pure scheduler wake-ups (wake: true) are excluded: the ready-set
	// path schedules them to re-classify stalled warps at known wake
	// times, while the reference rescan path never needs them — they are
	// issue-path bookkeeping, not architectural events. Writebacks and
	// tracker completions stay.
	digestRing(h, &s.ring)
	digestWaiters(h, s.waiters)
}

// digestRing walks the writeback ring slot by slot, each slot's events in
// FIFO order, skipping pure wake-ups (see digestExec).
func digestRing(h *digest.Hasher, r *wbRing) {
	h.Int(ringSize)
	for slot := range r.head {
		n := 0
		for j := r.head[slot]; j != 0; j = r.nodes[j].next {
			if !r.nodes[j].ev.wake {
				n++
			}
		}
		h.Int(n)
		for j := r.head[slot]; j != 0; j = r.nodes[j].next {
			ev := &r.nodes[j].ev
			if ev.wake {
				continue
			}
			digestResident(h, ev.res)
			h.I64(int64(ev.reg))
			digestTracker(h, ev.tracker)
		}
	}
}

// digestWaiters walks the outstanding miss lines in ascending order, each
// line's trackers in arrival order.
func digestWaiters(h *digest.Hasher, w *queue.Waiters[*loadTracker]) {
	lines := w.SortedLines()
	h.Int(len(lines))
	for _, la := range lines {
		h.U64(la)
		ts := w.Get(la)
		h.Int(len(ts))
		for _, t := range ts {
			digestTracker(h, t)
		}
	}
}

func digestResident(h *digest.Hasher, r *resident) {
	if r == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	h.I64(r.w.Age)
	h.Int(r.w.Kernel)
	h.Bool(r.gone)
}

func digestTracker(h *digest.Hasher, t *loadTracker) {
	if t == nil {
		h.Bool(false)
		return
	}
	h.Bool(true)
	digestResident(h, t.res)
	h.I64(int64(t.reg))
	h.Int(t.remaining)
}

// digestStats covers every deterministic counter in field-list order
// (SchedFastSlots, the list's last entry, and the L1 roll-up excluded —
// the L1 digests as its own section).
func (s *SM) digestStats(h *digest.Hasher) {
	st := &s.stats
	h.I64(st.Cycles)
	fs := st.fields()
	for _, v := range fs[:len(fs)-1] {
		h.U64(*v)
	}
	for k := range st.PerKernel {
		for _, v := range st.PerKernel[k].fields() {
			h.U64(*v)
		}
	}
}

// sectionNames fixes the section order for DigestInto and DigestSections.
var sectionNames = [...]string{"warps", "ctas", "sched", "alloc", "exec", "stats", "l1"}

func (s *SM) digestSection(h *digest.Hasher, i int) {
	switch i {
	case 0:
		s.digestWarps(h)
	case 1:
		s.digestCTAs(h)
	case 2:
		s.digestSched(h)
	case 3:
		s.digestAlloc(h)
	case 4:
		s.digestExec(h)
	case 5:
		s.digestStats(h)
	case 6:
		s.l1.DigestInto(h)
	}
}

// DigestInto walks every section in fixed order.
func (s *SM) DigestInto(h *digest.Hasher) {
	for i := range sectionNames {
		s.digestSection(h, i)
	}
}

// DigestSections returns one named digest per SM section, letting a
// bisector localize a divergence inside the SM (warps vs scheduler vs
// LD/ST pipeline vs L1 ...).
func (s *SM) DigestSections() []digest.Component {
	out := make([]digest.Component, len(sectionNames))
	for i, name := range sectionNames {
		h := digest.NewHasher()
		s.digestSection(h, i)
		out[i] = digest.Component{Name: name, Sum: h.Sum()}
	}
	return out
}
