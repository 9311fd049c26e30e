//go:build simassert

package mem

import (
	"testing"

	"warpedslicer/internal/memreq"
)

// TestDrainedPanicsOnLeakedSpan pins the span-conservation invariant: a
// span opened but never completed while the hierarchy reports drained is
// a lost handle, and must panic under -tags simassert.
func TestDrainedPanicsOnLeakedSpan(t *testing.T) {
	m := newSub()
	m.Spans.SetPeriod(1)
	if h := m.Spans.Begin(0x80, 0, 0, 0); h == 0 {
		t.Fatal("period-1 Begin refused a span")
	}
	// The span's request was never submitted, so the hierarchy is empty
	// while the span stays open: exactly the leak the invariant catches.
	defer func() {
		if recover() == nil {
			t.Fatal("Drained with an open span must panic under simassert")
		}
	}()
	m.Drained()
}

// TestDrainedCleanAfterFullRoundTrip is the positive control: when every
// traced request completes, Drained reports true without tripping the
// leak invariant.
func TestDrainedCleanAfterFullRoundTrip(t *testing.T) {
	m := newSub()
	m.Spans.SetPeriod(1)
	floodChannel0(t, m, 64, 4)
	for now := int64(500_000); now < 510_000 && !m.Drained(); now++ {
		m.Tick(now)
	}
	if !m.Drained() {
		t.Fatal("hierarchy failed to drain")
	}
	if m.Spans.Open() != 0 {
		t.Fatalf("%d spans open after drain", m.Spans.Open())
	}
}

// TestWaiterLinesTrackL2MSHRs pins the per-partition invariant that every
// L2 waiter line holds exactly one MSHR: a waiter parked with no miss
// outstanding (so no fill will ever wake it) must panic under simassert.
func TestWaiterLinesTrackL2MSHRs(t *testing.T) {
	m := newSub()
	floodChannel0(t, m, 64, 4) // the invariant holds through real traffic
	m.parts[0].waiters.Add(0x80, memreq.Request{LineAddr: 0x80})
	defer func() {
		if recover() == nil {
			t.Fatal("a waiter line without an L2 MSHR must panic under simassert")
		}
	}()
	m.Cycle(600_000, nil)
}
