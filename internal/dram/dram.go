// Package dram models one GDDR5 memory channel with an FR-FCFS
// (first-ready, first-come-first-served) scheduler and a row-buffer timing
// model, per Table I of the paper (6 MCs, FR-FCFS, 924MHz, tCL=12 tRP=12
// tRC=40 tRAS=28 tRCD=12 tRRD=6).
//
// All times inside this package are memory-clock cycles; the memory
// partition (package mem) converts between core and memory clock domains.
package dram

import (
	"fmt"
	"slices"

	"warpedslicer/internal/assert"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/span"
)

// Config holds the channel geometry and timing.
type Config struct {
	Banks       int
	RowBytes    uint64
	TCL         int // CAS latency
	TRP         int // row precharge
	TRCD        int // RAS-to-CAS delay
	TRRD        int // activate-to-activate (different banks)
	BurstCycles int // data-bus occupancy per transaction
	QueueDepth  int // FR-FCFS scheduling window
}

// Stats counts channel activity.
type Stats struct {
	Served    uint64 // transactions completed
	RowHits   uint64
	RowMisses uint64
	Writes    uint64
	// BusBusy accumulates memory cycles the data bus was occupied; divide
	// by elapsed cycles for bandwidth utilization.
	BusBusy uint64
	// QueueOccupancy accumulates queue length per Tick for averaging.
	QueueOccupancy uint64
	Ticks          uint64
}

// fields lists every counter once, in digest order. Channel.Register and
// Channel.DigestInto loop over it, so a new counter is one struct field plus
// one entry here and its series name in statsNames.
func (s *Stats) fields() [len(statsNames)]*uint64 {
	return [...]*uint64{&s.Served, &s.RowHits, &s.RowMisses, &s.Writes,
		&s.BusBusy, &s.QueueOccupancy, &s.Ticks}
}

// statsNames holds the series name of each fields entry, in the same order.
var statsNames = [...]string{
	"ws_dram_served_total", "ws_dram_row_hits_total", "ws_dram_row_misses_total",
	"ws_dram_writes_total", "ws_dram_bus_busy_total", "ws_dram_queue_occupancy_total",
	"ws_dram_ticks_total",
}

// BandwidthUtil returns the fraction of ticks the data bus was busy.
func (s Stats) BandwidthUtil() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.BusBusy) / float64(s.Ticks)
}

type bank struct {
	openRow  uint64
	rowValid bool
	readyAt  int64
}

type pending struct {
	req     memreq.Request
	arrival int64
}

type inflight struct {
	req  memreq.Request
	done int64
}

// Channel is one memory controller + DRAM device group.
type Channel struct {
	cfg       Config //simlint:nodigest -- config: timing parameters, fixed at construction
	banks     []bank
	queue     []pending
	inflight  []inflight
	busFreeAt int64
	lastActAt int64 // for tRRD

	// done is the buffer Tick returns, refilled on every call.
	//simlint:nodigest -- scratch: output buffer reset at the start of every Tick
	done []memreq.Request

	Stats Stats

	// Spans, when set, receives row-buffer outcome and queue/service
	// annotations for traced requests (see package span). The memory
	// partition injects it; a nil collector disables the hook.
	//simlint:nodigest -- observability: span-trace hook, never read by the model
	Spans *span.Collector

	// RowHitService / RowMissService record per-transaction service time
	// (arrival to data-complete, memory cycles) split by row-buffer
	// outcome. A row miss pays precharge+activate, so the two
	// distributions separate cleanly; their counts match
	// Stats.RowHits/RowMisses by construction.
	RowHitService  obs.Hist //simlint:nodigest -- observability: exported histogram; the digest pins Stats counters instead
	RowMissService obs.Hist //simlint:nodigest -- observability: exported histogram; the digest pins Stats counters instead
}

// NewChannel constructs a channel. Zero-valued timing fields are rejected.
func NewChannel(cfg Config) *Channel {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 || cfg.QueueDepth <= 0 || cfg.BurstCycles <= 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	return &Channel{
		cfg:       cfg,
		banks:     make([]bank, cfg.Banks),
		queue:     make([]pending, 0, cfg.QueueDepth),
		lastActAt: -1 << 60,
	}
}

// Full reports whether the scheduling queue cannot accept another request.
func (ch *Channel) Full() bool { return len(ch.queue) >= ch.cfg.QueueDepth }

// QueueLen returns the current queue occupancy.
func (ch *Channel) QueueLen() int { return len(ch.queue) }

// Enqueue admits a request. It returns false when the queue is full.
func (ch *Channel) Enqueue(req memreq.Request, now int64) bool {
	if ch.Full() {
		return false
	}
	ch.queue = append(ch.queue, pending{req: req, arrival: now})
	return true
}

func (ch *Channel) bankOf(lineAddr uint64) int {
	return int((lineAddr / ch.cfg.RowBytes) % uint64(ch.cfg.Banks))
}

func (ch *Channel) rowOf(lineAddr uint64) uint64 {
	return lineAddr / (ch.cfg.RowBytes * uint64(ch.cfg.Banks))
}

// Tick advances the channel to memory-clock cycle `now`: it issues at most
// one scheduled transaction and returns all requests whose data completed
// at or before `now`. The slice is a buffer the channel reuses: it is
// valid until the next Tick.
func (ch *Channel) Tick(now int64) []memreq.Request {
	ch.Stats.Ticks++
	ch.Stats.QueueOccupancy += uint64(len(ch.queue))

	if assert.Enabled {
		if len(ch.queue) > ch.cfg.QueueDepth {
			assert.Failf("dram: scheduling queue overflow: %d > %d", len(ch.queue), ch.cfg.QueueDepth)
		}
		if ch.Stats.RowHits+ch.Stats.RowMisses != ch.Stats.Served {
			assert.Failf("dram: row-buffer accounting broken: hits %d + misses %d != served %d",
				ch.Stats.RowHits, ch.Stats.RowMisses, ch.Stats.Served)
		}
	}

	ch.issue(now)

	ch.done = ch.done[:0]
	kept := ch.inflight[:0]
	for _, f := range ch.inflight {
		if f.done <= now {
			ch.done = append(ch.done, f.req)
		} else {
			kept = append(kept, f)
		}
	}
	ch.inflight = kept
	return ch.done
}

// issue applies FR-FCFS: the oldest row-buffer-hitting request whose bank is
// ready wins; otherwise the oldest request whose bank is ready.
func (ch *Channel) issue(now int64) {
	if len(ch.queue) == 0 {
		return
	}
	if ch.busFreeAt > now+int64(ch.cfg.TCL) {
		// The data bus is already booked past the earliest possible CAS;
		// issuing now gains nothing and would forfeit FR-FCFS choice
		// flexibility (and overstate bus-busy accounting).
		return
	}

	pick := -1
	rowHit := false
	for i, p := range ch.queue {
		b := &ch.banks[ch.bankOf(p.req.LineAddr)]
		if b.readyAt > now {
			continue
		}
		if b.rowValid && b.openRow == ch.rowOf(p.req.LineAddr) {
			pick, rowHit = i, true
			break // oldest row hit wins immediately
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		return
	}

	p := ch.queue[pick]
	bi := ch.bankOf(p.req.LineAddr)
	b := &ch.banks[bi]

	var casAt int64
	if rowHit {
		casAt = now
		ch.Stats.RowHits++
	} else {
		// Precharge + activate. Respect tRRD between activates.
		actAt := now + int64(ch.cfg.TRP)
		if min := ch.lastActAt + int64(ch.cfg.TRRD); actAt < min {
			actAt = min
		}
		ch.lastActAt = actAt
		casAt = actAt + int64(ch.cfg.TRCD)
		ch.Stats.RowMisses++
		b.openRow = ch.rowOf(p.req.LineAddr)
		b.rowValid = true
	}

	dataAt := casAt + int64(ch.cfg.TCL)
	if dataAt < ch.busFreeAt {
		dataAt = ch.busFreeAt
	}
	done := dataAt + int64(ch.cfg.BurstCycles)
	ch.busFreeAt = done
	b.readyAt = casAt + int64(ch.cfg.BurstCycles)

	ch.Stats.BusBusy += uint64(ch.cfg.BurstCycles)
	ch.Stats.Served++
	if p.req.Write {
		ch.Stats.Writes++
	}
	if rowHit {
		ch.RowHitService.Observe(done - p.arrival)
	} else {
		ch.RowMissService.Observe(done - p.arrival)
	}
	if p.req.Span != 0 {
		// Memory-clock annotation: how the queue wait and device service
		// split inside the core-clock dram stage the span already times.
		ch.Spans.MarkDRAMIssue(p.req.Span, rowHit, now-p.arrival, done-now)
	}

	ch.queue = slices.Delete(ch.queue, pick, pick+1)
	ch.inflight = append(ch.inflight, inflight{req: p.req, done: done})
}

// Drained reports whether no work remains queued or in flight.
func (ch *Channel) Drained() bool { return len(ch.queue) == 0 && len(ch.inflight) == 0 }

// Pending returns the number of transactions queued or in flight. The
// fast-forward quiescence check (mem.OnlyRepliesInFlight) requires it to
// be zero: an in-flight transaction's completion still has to fill L2 and
// wake waiters, so its downstream wake-ups are not yet stamped.
func (ch *Channel) Pending() int { return len(ch.queue) + len(ch.inflight) }
