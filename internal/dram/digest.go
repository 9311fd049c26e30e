package dram

import "warpedslicer/internal/digest"

// DigestInto walks the channel's architectural state: per-bank row-buffer
// and timing state, the FR-FCFS scheduling queue in arrival order, the
// in-flight transactions in issue order, bus/activate timing, and the
// counters. The span collector and service-time histograms are
// observability and excluded.
func (ch *Channel) DigestInto(h *digest.Hasher) {
	h.Int(len(ch.banks))
	for i := range ch.banks {
		b := &ch.banks[i]
		h.U64(b.openRow)
		h.Bool(b.rowValid)
		h.I64(b.readyAt)
	}
	h.Int(len(ch.queue))
	for i := range ch.queue {
		p := &ch.queue[i]
		p.req.DigestInto(h)
		h.I64(p.arrival)
	}
	h.Int(len(ch.inflight))
	for i := range ch.inflight {
		f := &ch.inflight[i]
		f.req.DigestInto(h)
		h.I64(f.done)
	}
	h.I64(ch.busFreeAt)
	h.I64(ch.lastActAt)
	for _, v := range ch.Stats.fields() {
		h.U64(*v)
	}
}
