// Package mem wires the GPU memory hierarchy below the SMs: a
// bandwidth-limited interconnect, one L2 bank per memory channel, and one
// GDDR5 FR-FCFS DRAM controller per channel (Table I: 6 MCs, 128KB L2 per
// channel). The L2 banks and DRAM run in the memory clock domain; the
// package converts from the core clock using the configured clock ratio.
package mem

import (
	"warpedslicer/internal/assert"
	"warpedslicer/internal/cache"
	"warpedslicer/internal/config"
	"warpedslicer/internal/dram"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/queue"
	"warpedslicer/internal/span"
)

// MaxKernels bounds the number of concurrently resident kernels the
// per-kernel accounting arrays support.
const MaxKernels = 8

type timed struct {
	req     memreq.Request
	readyAt int64
}

// partition is one memory channel: L2 bank + DRAM controller.
type partition struct {
	l2   *cache.Cache
	dram *dram.Channel
	// input holds requests that traversed the icnt. It is not bounded by
	// the MSHRs (stores are write-through), so it is a growable ring.
	input   queue.Ring[timed]
	waiters *queue.Waiters[memreq.Request] // line -> reads waiting for DRAM
	// retry holds requests blocked on a full DRAM queue; readyAt is the
	// core cycle they were parked (source of the backpressure histogram).
	retry queue.Ring[timed]
}

// Stats aggregates memory-system activity.
type Stats struct {
	// L2 aggregates all banks' cache stats.
	L2 cache.Stats
	// DRAMServed counts DRAM transactions per kernel slot.
	DRAMServed [MaxKernels]uint64
	// DRAMServedPerSM counts DRAM transactions per originating SM.
	DRAMServedPerSM []uint64
	// L2MissPerKernel counts L2 load misses per kernel slot (MPKI input).
	L2MissPerKernel [MaxKernels]uint64
	// L2AccessPerKernel counts L2 load accesses per kernel slot.
	L2AccessPerKernel [MaxKernels]uint64
	// BusBusy / Ticks aggregate DRAM data-bus utilization.
	BusBusy, MemTicks uint64
}

// BandwidthUtil returns aggregate DRAM bus utilization in [0,1].
func (s Stats) BandwidthUtil() float64 {
	if s.MemTicks == 0 {
		return 0
	}
	return float64(s.BusBusy) / float64(s.MemTicks)
}

// Subsystem is the complete below-SM memory system.
type Subsystem struct {
	cfg config.GPU //simlint:nodigest -- config: fixed at construction, never mutates during a run

	reqNet   queue.Ring[timed]
	reqCap   int //simlint:nodigest -- config: queue capacity derived from cfg at construction
	replyNet queue.Ring[timed]
	// replies is the buffer Cycle returns, refilled on every call.
	//simlint:nodigest -- scratch: output buffer reset at the start of every deliverReplies
	replies []memreq.Request

	// replyPending counts, per SM, read replies sitting in the reply
	// network with a stamped readyAt. The SM cycle classifier compares it
	// against its outstanding-load lines: when every missing line already
	// has a scheduled reply, the SM's wake-up time is known and the stall
	// is fast-forward skippable (ROADMAP item 2a).
	replyPending []int64

	parts []*partition

	memAccum float64
	memNow   int64

	// perSMServed counts DRAM transactions per originating SM; Stats
	// copies it into DRAMServedPerSM.
	perSMServed []uint64
	perKServed  [MaxKernels]uint64
	perKL2Miss  [MaxKernels]uint64
	perKL2Acc   [MaxKernels]uint64

	// l1RT is the L1-miss round-trip latency histogram in core cycles:
	// from the SM submitting the miss to the reply leaving the reply
	// network (the quantity every partitioning decision trades against).
	//simlint:nodigest -- observability: exported histogram, never read by the model
	l1RT obs.Hist
	// l2Wait is the L2-bank input-queue wait in core cycles: time between
	// a request finishing its interconnect traversal and the bank
	// consuming it.
	//simlint:nodigest -- observability: exported histogram, never read by the model
	l2Wait obs.Hist
	// retryWait is the time requests spend parked in a partition's retry
	// slice because the DRAM scheduling queue was full, in core cycles.
	// Invisible to l2Wait (the bank already consumed the request), it is
	// the queue-side signature of DRAM backpressure.
	//simlint:nodigest -- observability: exported histogram, never read by the model
	retryWait obs.Hist

	// Spans traces a deterministic sample of L1-miss round trips through
	// every stage of the hierarchy (see package span).
	//simlint:nodigest -- observability: span-trace hook, never read by the model
	Spans *span.Collector
}

// New builds the memory subsystem for the given configuration.
func New(cfg config.GPU) *Subsystem {
	reqCap := cfg.Icnt.FlitsPerCycle * 16
	m := &Subsystem{
		cfg:          cfg,
		reqNet:       queue.NewRing[timed](reqCap),
		reqCap:       reqCap,
		perSMServed:  make([]uint64, cfg.NumSMs),
		replyPending: make([]int64, cfg.NumSMs),
		Spans: span.NewCollector(span.DefaultPeriod,
			int64(cfg.Icnt.LatencyCycles), int64(cfg.L2.HitLatency)),
	}
	for i := 0; i < cfg.Memory.Channels; i++ {
		m.parts = append(m.parts, &partition{
			l2: cache.New(cfg.L2.SizeBytes, cfg.L2.LineBytes, cfg.L2.Assoc, cfg.L2.MSHRs),
			dram: dram.NewChannel(dram.Config{
				Banks:       cfg.Memory.BanksPerChannel,
				RowBytes:    2048,
				TCL:         cfg.Memory.TCL,
				TRP:         cfg.Memory.TRP,
				TRCD:        cfg.Memory.TRCD,
				TRRD:        cfg.Memory.TRRD,
				BurstCycles: cfg.Memory.BurstCycles,
				QueueDepth:  cfg.Memory.QueueDepth,
			}),
			waiters: queue.NewWaiters[memreq.Request](cfg.L2.MSHRs),
		})
	}
	for _, p := range m.parts {
		p.dram.Spans = m.Spans
	}
	return m
}

// channelOf maps a line address to its memory partition.
func (m *Subsystem) channelOf(lineAddr uint64) int {
	return int((lineAddr / uint64(m.cfg.L2.LineBytes)) % uint64(len(m.parts)))
}

// CanAccept reports whether the interconnect can take another request this
// cycle.
func (m *Subsystem) CanAccept() bool { return m.reqNet.Len() < m.reqCap }

// Submit injects a request into the interconnect. It returns false when the
// network is saturated (the SM must stall and retry).
func (m *Subsystem) Submit(req memreq.Request, now int64) bool {
	if m.reqNet.Len() >= m.reqCap {
		return false
	}
	m.reqNet.Push(timed{req: req, readyAt: now + int64(m.cfg.Icnt.LatencyCycles)})
	if assert.Enabled && m.reqNet.Len() > m.reqCap {
		assert.Failf("mem: request-network overflow after submit: %d > %d", m.reqNet.Len(), m.reqCap)
	}
	return true
}

// Tick advances the subsystem one core cycle with no profiler; see Cycle.
func (m *Subsystem) Tick(now int64) []memreq.Request {
	return m.Cycle(now, nil)
}

// Cycle advances the subsystem one core cycle and returns the read
// replies (requests whose data is now available at their SM). The slice
// is a buffer the subsystem reuses: it is valid until the next Cycle or
// Tick, so a caller that keeps replies must copy them. p is the
// engine profiler on cycles it elected and nil otherwise; its marks
// charge network drains and reply delivery to icnt, the bank access to
// l2, and retry drain + FR-FCFS completions to dram.
func (m *Subsystem) Cycle(now int64, p *prof.Profiler) []memreq.Request {
	// 1. Drain the request network into partitions, respecting the flit
	// budget and arrival latency.
	m.drainReqNet(now)
	if p != nil {
		p.Mark(prof.Icnt)
	}

	// 2. Advance the memory clock domain: L2 banks and DRAM. The pump
	// order within a partition is load-bearing: retry drain must precede
	// the L2 access (a parked request re-enters DRAM before the bank
	// consumes new work), and DRAM completions come last so a fill never
	// races the access that missed on it this same memory cycle.
	m.memAccum += m.cfg.MemClockRatio()
	for m.memAccum >= 1 {
		m.memAccum--
		m.memNow++
		for _, part := range m.parts {
			m.pumpRetry(part, now)
			if p != nil {
				p.Mark(prof.DRAM)
			}
			m.pumpL2(part, now)
			if p != nil {
				p.Mark(prof.L2)
			}
			m.pumpDRAM(part, now)
			if p != nil {
				p.Mark(prof.DRAM)
			}
		}
	}

	// 3. Deliver replies that finished their return traversal.
	m.deliverReplies(now)
	if p != nil {
		p.Mark(prof.Icnt)
	}
	if assert.Enabled {
		m.checkInvariants()
	}
	return m.replies
}

// drainReqNet moves arrived requests from the interconnect into their
// partition's input queue, respecting the per-cycle flit budget.
func (m *Subsystem) drainReqNet(now int64) {
	for budget := m.cfg.Icnt.FlitsPerCycle; budget > 0 && m.reqNet.Len() > 0; budget-- {
		if m.reqNet.At(0).readyAt > now {
			break
		}
		t := m.reqNet.Pop()
		m.parts[m.channelOf(t.req.LineAddr)].input.Push(t)
	}
}

// deliverReplies refills m.replies with the read replies whose return
// traversal finished, respecting the per-cycle flit budget.
func (m *Subsystem) deliverReplies(now int64) {
	m.replies = m.replies[:0]
	for budget := m.cfg.Icnt.FlitsPerCycle; budget > 0 && m.replyNet.Len() > 0; budget-- {
		if m.replyNet.At(0).readyAt > now {
			break
		}
		t := m.replyNet.Pop()
		m.replies = append(m.replies, t.req)
		if t.req.SM >= 0 && t.req.SM < len(m.replyPending) {
			m.replyPending[t.req.SM]--
		}
		m.l1RT.Observe(now - t.req.Issued)
		m.Spans.Complete(t.req.Span, now)
	}
}

// pumpRetry re-enqueues requests previously blocked on a full DRAM queue,
// observing how long the backpressure parked them.
func (m *Subsystem) pumpRetry(p *partition, coreNow int64) {
	for p.retry.Len() > 0 && !p.dram.Full() {
		t := p.retry.Pop()
		p.dram.Enqueue(t.req, m.memNow)
		m.retryWait.Observe(coreNow - t.readyAt)
		m.Spans.MarkDRAMEnqueue(t.req.Span, coreNow)
	}
}

// pumpL2 performs one L2 bank access per memory cycle.
func (m *Subsystem) pumpL2(p *partition, coreNow int64) {
	if p.input.Len() > 0 {
		t := *p.input.At(0)
		req := t.req
		res := p.l2.Access(req.LineAddr, req.Write)
		consumed := true
		switch {
		case req.Write:
			// Write-through: always forward to DRAM.
			if p.dram.Full() {
				p.retry.Push(timed{req: req, readyAt: coreNow})
			} else {
				p.dram.Enqueue(req, m.memNow)
			}
		case res == cache.Hit:
			m.Spans.MarkL2(req.Span, span.OutcomeL2Hit, coreNow, t.readyAt)
			m.scheduleReply(req, coreNow, int64(m.cfg.L2.HitLatency))
		case res == cache.Miss:
			m.perKL2Miss[req.Kernel%MaxKernels]++
			m.Spans.MarkL2(req.Span, span.OutcomeL2Miss, coreNow, t.readyAt)
			p.waiters.Add(req.LineAddr, req)
			if p.dram.Full() {
				p.retry.Push(timed{req: req, readyAt: coreNow})
			} else {
				p.dram.Enqueue(req, m.memNow)
				m.Spans.MarkDRAMEnqueue(req.Span, coreNow)
			}
		case res == cache.MissMerged:
			m.perKL2Miss[req.Kernel%MaxKernels]++
			m.Spans.MarkL2(req.Span, span.OutcomeMerged, coreNow, t.readyAt)
			p.waiters.Add(req.LineAddr, req)
		case res == cache.ReservationFail:
			consumed = false // structural stall: retry next cycle
		default:
			if assert.Enabled {
				assert.Failf("mem: unhandled L2 access result %v", res)
			}
		}
		if consumed {
			if !req.Write {
				m.perKL2Acc[req.Kernel%MaxKernels]++
			}
			m.l2Wait.Observe(coreNow - t.readyAt)
			p.input.Pop()
		}
	}
}

// pumpDRAM collects DRAM completions: fill L2 and wake waiting reads.
func (m *Subsystem) pumpDRAM(p *partition, coreNow int64) {
	for _, done := range p.dram.Tick(m.memNow) {
		m.perKServed[done.Kernel%MaxKernels]++
		if done.SM >= 0 && done.SM < len(m.perSMServed) {
			m.perSMServed[done.SM]++
		}
		if done.Write {
			continue
		}
		p.l2.Fill(done.LineAddr)
		for _, w := range p.waiters.Take(done.LineAddr) {
			m.Spans.MarkFill(w.Span, coreNow)
			m.scheduleReply(w, coreNow, int64(m.cfg.L2.HitLatency))
		}
	}
}

func (m *Subsystem) scheduleReply(req memreq.Request, coreNow, extra int64) {
	m.replyNet.Push(timed{
		req:     req,
		readyAt: coreNow + extra + int64(m.cfg.Icnt.LatencyCycles),
	})
	// Only reads are ever scheduled (writes complete silently), and each
	// outstanding L1 miss line yields exactly one reply, so replyPending
	// counts the SM's miss lines with a known wake-up time.
	if req.SM >= 0 && req.SM < len(m.replyPending) {
		m.replyPending[req.SM]++
	}
}

// RepliesInFlight returns the number of read replies scheduled for the
// given SM that have not yet been delivered. Each has a stamped readyAt,
// so the SM's classifier treats them as known wake-ups.
func (m *Subsystem) RepliesInFlight(sm int) int {
	if sm < 0 || sm >= len(m.replyPending) {
		return 0
	}
	return int(m.replyPending[sm])
}

// OnlyRepliesInFlight reports whether every request still inside the
// hierarchy is a scheduled reply: the request network is empty and every
// partition has drained its input, retry and waiter state with no DRAM
// transaction pending. At that point the whole memory system's future is
// a set of stamped readyAt deliveries — combined with all-SMs-skippable
// it makes the device cycle fast-forwardable.
func (m *Subsystem) OnlyRepliesInFlight() bool {
	if m.reqNet.Len() > 0 {
		return false
	}
	for _, p := range m.parts {
		if p.input.Len() > 0 || p.retry.Len() > 0 || p.waiters.Len() > 0 || p.dram.Pending() > 0 {
			return false
		}
	}
	return true
}

// Stats returns a snapshot of accumulated statistics.
func (m *Subsystem) Stats() Stats {
	var s Stats
	for _, p := range m.parts {
		s.L2.Add(&p.l2.Stats)
		s.BusBusy += p.dram.Stats.BusBusy
		s.MemTicks += p.dram.Stats.Ticks
	}
	// MemTicks is summed across channels, so BusBusy/MemTicks is the
	// aggregate utilization of all data buses.
	s.DRAMServed = m.perKServed
	s.L2MissPerKernel = m.perKL2Miss
	s.L2AccessPerKernel = m.perKL2Acc
	s.DRAMServedPerSM = append([]uint64(nil), m.perSMServed...)
	return s
}

// L1RoundTrip returns a copy of the L1-miss round-trip latency histogram.
func (m *Subsystem) L1RoundTrip() obs.Hist { return m.l1RT }

// Drained reports whether no request remains anywhere in the hierarchy.
func (m *Subsystem) Drained() bool {
	if m.reqNet.Len() > 0 || m.replyNet.Len() > 0 {
		return false
	}
	for _, p := range m.parts {
		if p.input.Len() > 0 || p.retry.Len() > 0 || p.waiters.Len() > 0 || !p.dram.Drained() {
			return false
		}
	}
	// Span conservation: with nothing in flight anywhere, every opened
	// span must have completed (the ring never drops an open span, only
	// refuses new ones). An open span here means a handle was lost.
	if assert.Enabled && m.Spans.Open() != 0 {
		assert.Failf("mem: hierarchy drained with %d span(s) still open", m.Spans.Open())
	}
	return true
}

// checkInvariants verifies, at the end of every cycle under -tags
// simassert, the bounds the hierarchy's queues keep by construction.
func (m *Subsystem) checkInvariants() {
	if m.reqNet.Len() > m.reqCap {
		assert.Failf("mem: request network holds %d > capacity %d", m.reqNet.Len(), m.reqCap)
	}
	for i, p := range m.parts {
		// Every L2 waiter line has exactly one MSHR: a read Miss
		// allocates both, a MissMerged joins an existing line, writes
		// never wait, and the DRAM fill frees both together.
		if p.waiters.Len() != p.l2.MSHRInUse() {
			assert.Failf("mem: partition %d has %d waiter lines but %d L2 MSHRs in use",
				i, p.waiters.Len(), p.l2.MSHRInUse())
		}
	}
}
