package sm

import (
	"slices"
	"testing"

	"warpedslicer/internal/digest"
	"warpedslicer/internal/queue"
	"warpedslicer/internal/warp"
)

// The writeback ring's node arena and the waiter table replaced a
// [][]wbEvent and a map[uint64][]*loadTracker without a digest.Version
// bump, so their walks must hash exactly the bytes the old walks (kept
// below as the reference) hashed for the same contents.

func legacyDigestRing(h *digest.Hasher, ring [][]wbEvent) {
	h.Int(len(ring))
	for i := range ring {
		evs := ring[i]
		n := 0
		for j := range evs {
			if !evs[j].wake {
				n++
			}
		}
		h.Int(n)
		for j := range evs {
			ev := &evs[j]
			if ev.wake {
				continue
			}
			digestResident(h, ev.res)
			h.I64(int64(ev.reg))
			digestTracker(h, ev.tracker)
		}
	}
}

func legacyDigestWaiters(h *digest.Hasher, waiters map[uint64][]*loadTracker) {
	keys := make([]uint64, 0, len(waiters))
	for la := range waiters {
		keys = append(keys, la)
	}
	slices.Sort(keys)
	h.Int(len(keys))
	for _, la := range keys {
		h.U64(la)
		ts := waiters[la]
		h.Int(len(ts))
		for _, t := range ts {
			digestTracker(h, t)
		}
	}
}

// fixtures returns residents and trackers distinguishable by the digest.
func fixtures() ([]*resident, []*loadTracker) {
	var rs []*resident
	var ts []*loadTracker
	for i := 0; i < 5; i++ {
		rs = append(rs, &resident{w: &warp.Warp{Age: int64(100 + i), Kernel: i % 2}, gone: i == 3})
	}
	for i := 0; i < 5; i++ {
		ts = append(ts, &loadTracker{res: rs[(i+1)%5], reg: int8(i), remaining: i + 1})
	}
	return rs, ts
}

// TestRingDigestMatchesSliceWalk schedules and drains the same events on
// the node arena and on per-slot slices, freed nodes being reused, and
// compares the walks after every step.
func TestRingDigestMatchesSliceWalk(t *testing.T) {
	rs, ts := fixtures()
	var r wbRing
	ref := make([][]wbEvent, ringSize)
	for i := 0; i < 300; i++ {
		ev := wbEvent{res: rs[i%5], reg: int8(i % 9), wake: i%7 == 0}
		if i%3 == 0 {
			ev = wbEvent{tracker: ts[i%5]}
		}
		slot := int64(i*37) % 11 // a few busy slots, so chains interleave
		r.push(slot, ev)
		ref[slot] = append(ref[slot], ev)
		if i%4 == 3 {
			drained := int64(i) % 11
			var got []wbEvent
			for j := r.take(drained); j != 0; {
				var e wbEvent
				e, j = r.pop(j)
				got = append(got, e)
			}
			if !slices.Equal(got, ref[drained]) {
				t.Fatalf("step %d: slot %d drained %v, want %v", i, drained, got, ref[drained])
			}
			ref[drained] = nil
		}
		got, want := digest.NewHasher(), digest.NewHasher()
		digestRing(got, &r)
		legacyDigestRing(want, ref)
		if got.Sum() != want.Sum() {
			t.Fatalf("step %d: arena digest %s, slice digest %s", i, got.Sum(), want.Sum())
		}
	}
}

// TestWaiterDigestMatchesMapWalk applies the same misses and fills to the
// waiter table and to the map it replaced.
func TestWaiterDigestMatchesMapWalk(t *testing.T) {
	_, ts := fixtures()
	w := queue.NewWaiters[*loadTracker](2)
	ref := map[uint64][]*loadTracker{}
	for i := 0; i < 200; i++ {
		la := uint64(i%7) * 128
		if i%5 == 4 {
			w.Take(la)
			delete(ref, la)
		} else {
			w.Add(la, ts[i%5])
			ref[la] = append(ref[la], ts[i%5])
		}
		got, want := digest.NewHasher(), digest.NewHasher()
		digestWaiters(got, w)
		legacyDigestWaiters(want, ref)
		if got.Sum() != want.Sum() {
			t.Fatalf("step %d: table digest %s, map digest %s", i, got.Sum(), want.Sum())
		}
	}
}
