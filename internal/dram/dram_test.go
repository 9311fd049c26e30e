package dram

import (
	"testing"

	"warpedslicer/internal/memreq"
)

func testCfg() Config {
	return Config{
		Banks: 4, RowBytes: 2048,
		TCL: 12, TRP: 12, TRCD: 12, TRRD: 6,
		BurstCycles: 4, QueueDepth: 8,
	}
}

// run advances the channel until n requests complete or limit ticks pass.
func run(t *testing.T, ch *Channel, n int, limit int64) []memreq.Request {
	t.Helper()
	var done []memreq.Request
	for now := int64(0); now < limit && len(done) < n; now++ {
		done = append(done, ch.Tick(now)...)
	}
	if len(done) < n {
		t.Fatalf("only %d of %d requests completed in %d ticks", len(done), n, limit)
	}
	return done
}

func TestSingleRequestTiming(t *testing.T) {
	ch := NewChannel(testCfg())
	ch.Enqueue(memreq.Request{LineAddr: 0}, 0)
	var doneAt int64 = -1
	for now := int64(0); now < 200; now++ {
		if len(ch.Tick(now)) > 0 {
			doneAt = now
			break
		}
	}
	// Cold row: TRP+TRCD+TCL+Burst = 12+12+12+4 = 40.
	if doneAt != 40 {
		t.Fatalf("first request completed at %d, want 40", doneAt)
	}
	if ch.Stats.RowMisses != 1 || ch.Stats.RowHits != 0 {
		t.Fatalf("row stats = %d hits / %d misses, want 0/1", ch.Stats.RowHits, ch.Stats.RowMisses)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	// Two requests to the same row: second should be a row hit.
	ch := NewChannel(testCfg())
	ch.Enqueue(memreq.Request{LineAddr: 0}, 0)
	ch.Enqueue(memreq.Request{LineAddr: 128}, 0)
	run(t, ch, 2, 500)
	if ch.Stats.RowHits != 1 || ch.Stats.RowMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", ch.Stats.RowHits, ch.Stats.RowMisses)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := testCfg()
	ch := NewChannel(cfg)
	// Open row 0 of bank 0.
	ch.Enqueue(memreq.Request{LineAddr: 0}, 0)
	run(t, ch, 1, 200)
	// Now enqueue: first an address in a DIFFERENT row of bank 0, then a
	// row-0 hit. FR-FCFS should serve the hit first.
	other := uint64(2048 * 4) // same bank (4 banks), next row
	ch.Enqueue(memreq.Request{LineAddr: other}, 100)
	ch.Enqueue(memreq.Request{LineAddr: 128}, 100)
	var first memreq.Request
	got := false
	for now := int64(100); now < 500 && !got; now++ {
		for _, d := range ch.Tick(now) {
			first = d
			got = true
			break
		}
	}
	if !got || first.LineAddr != 128 {
		t.Fatalf("first served = %#x, want row-hit 0x80", first.LineAddr)
	}
}

func TestQueueBackpressure(t *testing.T) {
	ch := NewChannel(testCfg())
	for i := 0; i < 8; i++ {
		if !ch.Enqueue(memreq.Request{LineAddr: uint64(i) * 128}, 0) {
			t.Fatalf("enqueue %d rejected below depth", i)
		}
	}
	if !ch.Full() {
		t.Fatal("queue should be full")
	}
	if ch.Enqueue(memreq.Request{LineAddr: 9999}, 0) {
		t.Fatal("enqueue beyond depth accepted")
	}
}

func TestAllRequestsEventuallyServed(t *testing.T) {
	ch := NewChannel(testCfg())
	const n = 64
	enq := 0
	var done int
	for now := int64(0); now < 100000 && done < n; now++ {
		if enq < n && !ch.Full() {
			ch.Enqueue(memreq.Request{LineAddr: uint64(enq*37) * 128}, now)
			enq++
		}
		done += len(ch.Tick(now))
	}
	if done != n {
		t.Fatalf("served %d of %d", done, n)
	}
	if !ch.Drained() {
		t.Fatal("channel should be drained")
	}
	if ch.Stats.Served != n {
		t.Fatalf("Stats.Served = %d, want %d", ch.Stats.Served, n)
	}
}

func TestBandwidthBoundedByBurst(t *testing.T) {
	// Saturating stream: throughput cannot exceed 1 transaction per
	// BurstCycles.
	ch := NewChannel(testCfg())
	served := 0
	addr := uint64(0)
	const ticks = 4000
	for now := int64(0); now < ticks; now++ {
		for !ch.Full() {
			ch.Enqueue(memreq.Request{LineAddr: addr}, now)
			addr += 128
		}
		served += len(ch.Tick(now))
	}
	maxPossible := ticks / int64(testCfg().BurstCycles)
	if int64(served) > maxPossible {
		t.Fatalf("served %d > bus bound %d", served, maxPossible)
	}
	if served < int(maxPossible*7/10) {
		t.Fatalf("streaming throughput %d well below bus bound %d", served, maxPossible)
	}
	if u := ch.Stats.BandwidthUtil(); u < 0.7 || u > 1.0 {
		t.Fatalf("bandwidth util %.2f outside (0.7,1.0]", u)
	}
}

func TestWritesCounted(t *testing.T) {
	ch := NewChannel(testCfg())
	ch.Enqueue(memreq.Request{LineAddr: 0, Write: true}, 0)
	run(t, ch, 1, 200)
	if ch.Stats.Writes != 1 {
		t.Fatalf("writes = %d, want 1", ch.Stats.Writes)
	}
}

func TestRandomTrafficRowHitRateBelowStreaming(t *testing.T) {
	stream := NewChannel(testCfg())
	random := NewChannel(testCfg())
	var sAddr uint64
	seed := uint64(12345)
	feed := func(ch *Channel, now int64, next func() uint64) {
		for !ch.Full() {
			ch.Enqueue(memreq.Request{LineAddr: next()}, now)
		}
	}
	for now := int64(0); now < 20000; now++ {
		feed(stream, now, func() uint64 { sAddr += 128; return sAddr })
		feed(random, now, func() uint64 {
			seed = seed*6364136223846793005 + 1
			return (seed >> 20) &^ 127
		})
		stream.Tick(now)
		random.Tick(now)
	}
	sRate := float64(stream.Stats.RowHits) / float64(stream.Stats.RowHits+stream.Stats.RowMisses)
	rRate := float64(random.Stats.RowHits) / float64(random.Stats.RowHits+random.Stats.RowMisses)
	if sRate <= rRate {
		t.Fatalf("streaming row-hit rate %.2f not above random %.2f", sRate, rRate)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChannel(Config{})
}

func TestTRRDSpacesActivates(t *testing.T) {
	// Two row-miss requests to different banks: the second activate must
	// wait at least tRRD after the first.
	cfg := testCfg()
	ch := NewChannel(cfg)
	ch.Enqueue(memreq.Request{LineAddr: 0}, 0)            // bank 0
	ch.Enqueue(memreq.Request{LineAddr: cfg.RowBytes}, 0) // bank 1
	var done []int64
	for now := int64(0); now < 500 && len(done) < 2; now++ {
		for range ch.Tick(now) {
			done = append(done, now)
		}
	}
	if len(done) != 2 {
		t.Fatal("requests not served")
	}
	// First: TRP+TRCD+TCL+Burst = 40. Second activate delayed by tRRD
	// relative to the first, plus bus serialization of 4 cycles.
	if done[1]-done[0] < int64(cfg.BurstCycles) {
		t.Fatalf("second completion %d too close to first %d", done[1], done[0])
	}
}

func TestQueueOccupancyStat(t *testing.T) {
	ch := NewChannel(testCfg())
	ch.Enqueue(memreq.Request{LineAddr: 0}, 0)
	ch.Tick(0)
	if ch.Stats.Ticks == 0 {
		t.Fatal("ticks not counted")
	}
}

// TestServiceHistogramsMatchRowStats checks the per-outcome service-time
// histograms: their counts equal the row-hit/row-miss counters, and a row
// miss (precharge + activate) is never serviced faster than the fastest
// possible row hit.
func TestServiceHistogramsMatchRowStats(t *testing.T) {
	ch := NewChannel(testCfg())
	const n = 64
	enq, done := 0, 0
	for now := int64(0); now < 100000 && done < n; now++ {
		if enq < n && !ch.Full() {
			// Mixed stream: bursts of same-row traffic with row changes.
			ch.Enqueue(memreq.Request{LineAddr: uint64(enq/8)*8192 + uint64(enq%8)*128}, now)
			enq++
		}
		done += len(ch.Tick(now))
	}
	if done != n {
		t.Fatalf("served %d of %d", done, n)
	}
	if got := ch.RowHitService.Count(); got != ch.Stats.RowHits {
		t.Errorf("row-hit histogram count = %d, Stats.RowHits = %d", got, ch.Stats.RowHits)
	}
	if got := ch.RowMissService.Count(); got != ch.Stats.RowMisses {
		t.Errorf("row-miss histogram count = %d, Stats.RowMisses = %d", got, ch.Stats.RowMisses)
	}
	if ch.Stats.RowHits == 0 || ch.Stats.RowMisses == 0 {
		t.Fatal("traffic pattern produced no hit/miss mix; test is vacuous")
	}
	cfg := testCfg()
	minMiss := uint64(cfg.TRP + cfg.TRCD + cfg.TCL + cfg.BurstCycles)
	if mean := float64(ch.RowMissService.Sum()) / float64(ch.RowMissService.Count()); mean < float64(minMiss) {
		t.Errorf("mean row-miss service %.1f below timing floor %d", mean, minMiss)
	}
}

// TestTickAllocatesNothingWhenSaturated pins the hot-path allocation
// contract: with the scheduling queue kept full by a mixed row-hit and
// row-miss stream, Enqueue + Tick allocate nothing once the channel has
// warmed up (the completion slice is a reused buffer and the FR-FCFS pick
// is removed in place).
func TestTickAllocatesNothingWhenSaturated(t *testing.T) {
	cfg := testCfg()
	ch := NewChannel(cfg)
	var now int64
	var seq uint64
	served := 0
	step := func() {
		for !ch.Full() {
			// Runs of four lines share a row; runs hop across banks.
			ch.Enqueue(memreq.Request{LineAddr: (seq/4)*cfg.RowBytes*3 + (seq%4)*128, Write: seq%5 == 0}, now)
			seq++
		}
		served += len(ch.Tick(now))
		now++
	}
	for now < 4096 {
		step()
	}
	// A completion comes at most once per BurstCycles, so each run spans
	// 16 ticks: an allocation per completion would average at least 1.
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("Enqueue+Tick allocates %v times per 16 ticks when saturated, want 0", n)
	}
	if ch.QueueLen() != cfg.QueueDepth || ch.Stats.RowHits == 0 || ch.Stats.RowMisses == 0 {
		t.Fatalf("trace not saturating a mixed stream: queue %d/%d, hits %d, misses %d",
			ch.QueueLen(), cfg.QueueDepth, ch.Stats.RowHits, ch.Stats.RowMisses)
	}
}
