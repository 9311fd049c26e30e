package mem

import (
	"warpedslicer/internal/digest"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/queue"
)

// The memory hierarchy digests as three components matching its pipeline
// stages — interconnect, L2 banks, DRAM channels — so the divergence
// bisector can localize a mismatch below the SMs without a custom walk.
// Histograms and the span collector are observability and excluded
// everywhere; see DESIGN.md "The canonical-state traversal contract".

// DigestIcnt hashes the interconnect: both network queues, the per-SM
// reply ledger, and the core→memory clock-domain accumulator.
func (m *Subsystem) DigestIcnt(h *digest.Hasher) {
	digestTimed(h, &m.reqNet)
	digestTimed(h, &m.replyNet)
	h.Int(len(m.replyPending))
	for _, v := range m.replyPending {
		h.I64(v)
	}
	h.F64(m.memAccum)
	h.I64(m.memNow)
}

// DigestL2 hashes every partition's L2 bank plus the queues feeding it:
// the input queue, the retry queue parked on DRAM backpressure, and the
// per-line waiter lists in sorted line order.
func (m *Subsystem) DigestL2(h *digest.Hasher) {
	h.Int(len(m.parts))
	for _, p := range m.parts {
		p.l2.DigestInto(h)
		digestTimed(h, &p.input)
		digestTimed(h, &p.retry)
		digestWaiters(h, p.waiters)
	}
}

// DigestDRAM hashes every partition's DRAM channel and the per-kernel /
// per-SM service counters.
func (m *Subsystem) DigestDRAM(h *digest.Hasher) {
	h.Int(len(m.parts))
	for _, p := range m.parts {
		p.dram.DigestInto(h)
	}
	for k := 0; k < MaxKernels; k++ {
		h.U64(m.perKServed[k])
		h.U64(m.perKL2Miss[k])
		h.U64(m.perKL2Acc[k])
	}
	h.Int(len(m.perSMServed))
	for _, v := range m.perSMServed {
		h.U64(v)
	}
}

// DigestInto hashes the whole subsystem (the three section digests in
// pipeline order).
func (m *Subsystem) DigestInto(h *digest.Hasher) {
	m.DigestIcnt(h)
	m.DigestL2(h)
	m.DigestDRAM(h)
}

// digestWaiters walks the waiter lines in ascending order, each line's
// list in arrival order.
func digestWaiters(h *digest.Hasher, w *queue.Waiters[memreq.Request]) {
	lines := w.SortedLines()
	h.Int(len(lines))
	for _, la := range lines {
		h.U64(la)
		ws := w.Get(la)
		h.Int(len(ws))
		for _, r := range ws {
			r.DigestInto(h)
		}
	}
}

// digestTimed walks a queue front to back.
func digestTimed(h *digest.Hasher, q *queue.Ring[timed]) {
	h.Int(q.Len())
	for i := 0; i < q.Len(); i++ {
		t := q.At(i)
		t.req.DigestInto(h)
		h.I64(t.readyAt)
	}
}
