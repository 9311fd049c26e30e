package mem

import (
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/span"
)

func newSub() *Subsystem { return New(config.Baseline()) }

// drive ticks until n read replies arrive or limit cycles pass.
func drive(t *testing.T, m *Subsystem, n int, limit int64) []memreq.Request {
	t.Helper()
	var got []memreq.Request
	for now := int64(0); now < limit && len(got) < n; now++ {
		got = append(got, m.Tick(now)...)
	}
	if len(got) < n {
		t.Fatalf("only %d of %d replies in %d cycles", len(got), n, limit)
	}
	return got
}

func TestReadRoundTrip(t *testing.T) {
	m := newSub()
	req := memreq.Request{LineAddr: 0x1000, SM: 3, Kernel: 1}
	if !m.Submit(req, 0) {
		t.Fatal("submit failed on empty network")
	}
	replies := drive(t, m, 1, 5000)
	if replies[0].SM != 3 || replies[0].LineAddr != 0x1000 {
		t.Fatalf("reply = %+v, want SM 3 addr 0x1000", replies[0])
	}
}

func TestLatencyIsRealistic(t *testing.T) {
	m := newSub()
	m.Submit(memreq.Request{LineAddr: 0x80, SM: 0}, 0)
	var arrival int64 = -1
	for now := int64(0); now < 5000; now++ {
		if len(m.Tick(now)) > 0 {
			arrival = now
			break
		}
	}
	// Icnt (8) + L2 access + DRAM cold access + return icnt: should be
	// well over 100 core cycles and under 1000 for an uncontended miss.
	if arrival < 100 || arrival > 1000 {
		t.Fatalf("cold-miss round trip = %d cycles, want 100..1000", arrival)
	}
}

func TestL2HitFasterThanMiss(t *testing.T) {
	m := newSub()
	m.Submit(memreq.Request{LineAddr: 0x80, SM: 0}, 0)
	var first int64 = -1
	now := int64(0)
	for ; now < 5000; now++ {
		if len(m.Tick(now)) > 0 {
			first = now
			break
		}
	}
	// Second access to the same line: L2 hit.
	start := now + 1
	m.Submit(memreq.Request{LineAddr: 0x80, SM: 0}, start)
	var second int64 = -1
	for now = start; now < start+5000; now++ {
		if len(m.Tick(now)) > 0 {
			second = now - start
			break
		}
	}
	if second >= first {
		t.Fatalf("L2 hit latency %d not below cold miss %d", second, first)
	}
}

func TestWritesProduceNoReplies(t *testing.T) {
	m := newSub()
	m.Submit(memreq.Request{LineAddr: 0x100, SM: 0, Write: true}, 0)
	for now := int64(0); now < 3000; now++ {
		if len(m.Tick(now)) != 0 {
			t.Fatal("write generated a reply")
		}
	}
	if !m.Drained() {
		t.Fatal("write never drained")
	}
}

func TestMergedReadsBothReplied(t *testing.T) {
	m := newSub()
	m.Submit(memreq.Request{LineAddr: 0x2000, SM: 0}, 0)
	m.Submit(memreq.Request{LineAddr: 0x2000, SM: 5}, 0)
	replies := drive(t, m, 2, 5000)
	sms := map[int]bool{}
	for _, r := range replies {
		sms[r.SM] = true
	}
	if !sms[0] || !sms[5] {
		t.Fatalf("replies = %v, want both SM 0 and SM 5", sms)
	}
}

func TestBackpressure(t *testing.T) {
	m := newSub()
	n := 0
	for m.Submit(memreq.Request{LineAddr: uint64(n) * 128, SM: 0}, 0) {
		n++
		if n > 100000 {
			t.Fatal("network never filled")
		}
	}
	if m.CanAccept() {
		t.Fatal("CanAccept true after Submit refused")
	}
	// Draining restores acceptance.
	for now := int64(1); now < 10000 && !m.CanAccept(); now++ {
		m.Tick(now)
	}
	if !m.CanAccept() {
		t.Fatal("network never drained")
	}
}

func TestChannelInterleaving(t *testing.T) {
	m := newSub()
	// Lines land on channels round-robin by line index.
	for i := 0; i < 12; i++ {
		m.Submit(memreq.Request{LineAddr: uint64(i) * 128, SM: 0}, 0)
	}
	drive(t, m, 12, 10000)
	st := m.Stats()
	if st.L2.Loads != 12 {
		t.Fatalf("L2 loads = %d, want 12", st.L2.Loads)
	}
}

func TestPerKernelAccounting(t *testing.T) {
	m := newSub()
	m.Submit(memreq.Request{LineAddr: 0x100, SM: 0, Kernel: 0}, 0)
	m.Submit(memreq.Request{LineAddr: 0x10000, SM: 1, Kernel: 1}, 0)
	drive(t, m, 2, 5000)
	st := m.Stats()
	if st.L2MissPerKernel[0] != 1 || st.L2MissPerKernel[1] != 1 {
		t.Fatalf("per-kernel misses = %v", st.L2MissPerKernel[:2])
	}
	if st.DRAMServed[0] != 1 || st.DRAMServed[1] != 1 {
		t.Fatalf("per-kernel DRAM = %v", st.DRAMServed[:2])
	}
	if st.DRAMServedPerSM[0] != 1 || st.DRAMServedPerSM[1] != 1 {
		t.Fatalf("per-SM DRAM = %v", st.DRAMServedPerSM[:2])
	}
}

func TestBandwidthUtilBounded(t *testing.T) {
	m := newSub()
	addr := uint64(0)
	for now := int64(0); now < 20000; now++ {
		for m.CanAccept() {
			m.Submit(memreq.Request{LineAddr: addr, SM: 0}, now)
			addr += 128
		}
		m.Tick(now)
	}
	u := m.Stats().BandwidthUtil()
	if u <= 0.3 || u > 1.0 {
		t.Fatalf("saturated bandwidth util = %.2f, want (0.3, 1.0]", u)
	}
}

func TestDrainedInitially(t *testing.T) {
	if !newSub().Drained() {
		t.Fatal("fresh subsystem should be drained")
	}
}

// TestLatencyHistogramsPopulate drives reads through the full hierarchy and
// checks both subsystem histograms record them: every delivered reply is one
// L1-miss round-trip observation, and every consumed request one L2-queue
// wait observation.
func TestLatencyHistogramsPopulate(t *testing.T) {
	m := newSub()
	const n = 32
	for i := 0; i < n; i++ {
		if !m.Submit(memreq.Request{LineAddr: uint64(i) * 4096, SM: 0, Issued: 0}, 0) {
			t.Fatalf("submit %d failed", i)
		}
	}
	drive(t, m, n, 50000)

	if got := m.l1RT.Count(); got != n {
		t.Errorf("l1 round-trip observations = %d, want %d", got, n)
	}
	// Round trips must at least cover two icnt traversals plus the L2 hit
	// latency (all requests here miss L2 and visit DRAM, so strictly more).
	cfg := config.Baseline()
	floor := uint64(2*cfg.Icnt.LatencyCycles + cfg.L2.HitLatency)
	if mean := float64(m.l1RT.Sum()) / float64(m.l1RT.Count()); mean <= float64(floor) {
		t.Errorf("mean round trip %.1f not above floor %d", mean, floor)
	}
	if m.l2Wait.Count() == 0 {
		t.Error("l2 queue-wait histogram empty")
	}
}

// floodChannel0 submits `total` distinct-line reads that all map to
// channel 0, up to `perCycle` per core cycle, ticking until every reply
// returns. The single-channel concentration overruns the 32-deep FR-FCFS
// queue, forcing the retry (DRAM backpressure) path.
func floodChannel0(t *testing.T, m *Subsystem, total, perCycle int) {
	t.Helper()
	cfg := config.Baseline()
	stride := uint64(cfg.L2.LineBytes * cfg.Memory.Channels)
	next, replies := 0, 0
	for now := int64(0); now < 500_000 && replies < total; now++ {
		for k := 0; k < perCycle && next < total && m.CanAccept(); k++ {
			line := uint64(next) * stride
			m.Submit(memreq.Request{
				LineAddr: line, SM: 0, Kernel: 0, Issued: now,
				Span: m.Spans.Begin(line, 0, 0, now),
			}, now)
			next++
		}
		replies += len(m.Tick(now))
	}
	if replies < total {
		t.Fatalf("only %d of %d replies", replies, total)
	}
}

// TestDRAMBackpressureWaitObserved pins the retry-park accounting: cycles
// a request spends in a partition's retry slice (L2 miss blocked on a
// full DRAM queue) were invisible to l2Wait; they must now land in the
// ws_dram_backpressure_wait_cycles histogram and, for traced requests,
// in the dram_backpressure span stage.
func TestDRAMBackpressureWaitObserved(t *testing.T) {
	m := newSub()
	m.Spans.SetPeriod(1)
	floodChannel0(t, m, 160, 8)

	if m.retryWait.Count() == 0 {
		t.Fatal("DRAM queue never backpressured: retry-wait histogram empty " +
			"(is the flood not overrunning QueueDepth?)")
	}
	if m.retryWait.Sum() == 0 {
		t.Error("retry-wait histogram counted parks but accumulated zero cycles")
	}
	tot := m.Spans.Totals()
	if tot.PerKernel[0].Stages[span.StageDRAMBackpressure] == 0 {
		t.Error("spans attribute no dram_backpressure time despite retry parks")
	}
}

// TestSpanStageSumEqualsEndToEnd drives a mixed hit/miss/merge workload
// at period-1 sampling and checks, for every completed span, that the
// stage durations sum exactly to the Issued->reply end-to-end latency.
func TestSpanStageSumEqualsEndToEnd(t *testing.T) {
	m := newSub()
	m.Spans.SetPeriod(1)
	const total = 320
	next, replies := 0, 0
	now := int64(0)
	for ; now < 500_000 && replies < total; now++ {
		for k := 0; k < 4 && next < total && m.CanAccept(); k++ {
			// 100 distinct lines, revisited: first touch misses, close
			// revisits merge into the in-flight MSHR, later ones hit L2.
			line := uint64(next%100) * 128
			m.Submit(memreq.Request{
				LineAddr: line, SM: 0, Kernel: next % 2, Issued: now,
				Span: m.Spans.Begin(line, 0, next%2, now),
			}, now)
			next++
		}
		replies += len(m.Tick(now))
	}
	if replies < total {
		t.Fatalf("only %d of %d replies", replies, total)
	}
	for ; now < 510_000 && !m.Drained(); now++ {
		m.Tick(now)
	}
	if !m.Drained() {
		t.Fatal("hierarchy failed to drain")
	}

	checked := 0
	m.Spans.Recent(func(sp span.Span) {
		checked++
		var sum int64
		for st, d := range sp.Stages {
			if d < 0 {
				t.Fatalf("span %d: negative %s stage (%d)", sp.Seq, span.Stage(st), d)
			}
			sum += d
		}
		if sum != sp.EndToEnd() {
			t.Fatalf("span %d: stage sum %d != end-to-end %d (outcome %s)",
				sp.Seq, sum, sp.EndToEnd(), sp.Outcome)
		}
	})
	if checked == 0 {
		t.Fatal("no completed spans to check")
	}

	tot := m.Spans.Totals()
	var completed uint64
	for k := range tot.PerKernel {
		kt := tot.PerKernel[k]
		completed += kt.Completed
		if kt.L2Hits+kt.L2Misses+kt.Merged != kt.Completed {
			t.Errorf("kernel %d: outcomes %d+%d+%d don't partition %d spans",
				k, kt.L2Hits, kt.L2Misses, kt.Merged, kt.Completed)
		}
	}
	if tot.Sampled != total || completed != total || tot.Dropped != 0 {
		t.Fatalf("sampled=%d completed=%d dropped=%d, want %d/%d/0",
			tot.Sampled, completed, tot.Dropped, total, total)
	}
	k0 := tot.PerKernel[0]
	if k0.L2Misses == 0 || k0.L2Hits+k0.Merged == 0 {
		t.Errorf("workload did not exercise both miss and hit/merge paths: %+v", k0)
	}
	// The traced end-to-end totals are a sample of exactly what l1RT saw.
	if m.l1RT.Count() != total {
		t.Errorf("l1RT observed %d round trips, want %d", m.l1RT.Count(), total)
	}
}

// TestCycleAllocatesNothingWhenSaturated pins the hot-path allocation
// contract on the whole hierarchy. A closed loop keeps 4096 reads in
// flight, so every queue stays bounded while the DRAM scheduling queues
// fill and park misses on the retry queue. Consecutive reads share a
// line, so L2 misses, merges and MSHR reservation failures all occur.
// Once warm, Submit + Cycle allocate nothing: the networks and partition
// queues are rings at their working size, the waiter table recycles its
// slots, and the reply slice is a reused buffer.
func TestCycleAllocatesNothingWhenSaturated(t *testing.T) {
	cfg := config.Baseline()
	m := New(cfg)
	const outstanding = 4096
	var now int64
	var seq uint64
	pending := 0
	step := func() {
		for pending < outstanding && m.CanAccept() {
			m.Submit(memreq.Request{
				LineAddr: (seq / 2) * uint64(cfg.L2.LineBytes), SM: int(seq % 16), Kernel: int(seq % 2), Issued: now,
			}, now)
			seq++
			pending++
		}
		pending -= len(m.Cycle(now, nil))
		now++
	}
	for now < 4096 {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("Submit+Cycle allocates %v times per cycle when saturated, want 0", n)
	}
	if m.retryWait.Count() == 0 {
		t.Fatal("trace never filled a DRAM scheduling queue")
	}
	if st := m.Stats(); st.L2.Merged == 0 || st.L2.ResFails == 0 {
		t.Fatalf("trace misses L2 paths: merges %d, reservation fails %d", st.L2.Merged, st.L2.ResFails)
	}
}
