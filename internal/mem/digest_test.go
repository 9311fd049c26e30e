package mem

import (
	"slices"
	"testing"

	"warpedslicer/internal/digest"
	"warpedslicer/internal/memreq"
	"warpedslicer/internal/queue"
)

// The queues and the waiter table replaced []timed slices and a
// map[uint64][]memreq.Request without a digest.Version bump, so their
// walks must hash exactly the bytes the old walks (kept below as the
// reference) hashed for the same contents.

func legacyDigestTimed(h *digest.Hasher, ts []timed) {
	h.Int(len(ts))
	for i := range ts {
		ts[i].req.DigestInto(h)
		h.I64(ts[i].readyAt)
	}
}

func legacyDigestWaiters(h *digest.Hasher, waiters map[uint64][]memreq.Request) {
	keys := make([]uint64, 0, len(waiters))
	for la := range waiters {
		keys = append(keys, la)
	}
	slices.Sort(keys)
	h.Int(len(keys))
	for _, la := range keys {
		h.U64(la)
		ws := waiters[la]
		h.Int(len(ws))
		for _, w := range ws {
			w.DigestInto(h)
		}
	}
}

func req(i int) memreq.Request {
	return memreq.Request{LineAddr: uint64(i%7) * 128, SM: i % 3, Kernel: i % 2, Write: i%4 == 0, Issued: int64(i)}
}

// TestRingDigestMatchesSliceWalk checks a ring that has wrapped and grown
// while wrapped against the slice of the same contents.
func TestRingDigestMatchesSliceWalk(t *testing.T) {
	r := queue.NewRing[timed](4)
	var ref []timed
	for i := 0; i < 23; i++ {
		v := timed{req: req(i), readyAt: int64(10 + i)}
		r.Push(v)
		ref = append(ref, v)
		if i%3 == 2 {
			r.Pop()
			ref = ref[1:]
		}
		got, want := digest.NewHasher(), digest.NewHasher()
		digestTimed(got, &r)
		legacyDigestTimed(want, ref)
		if got.Sum() != want.Sum() {
			t.Fatalf("step %d: ring digest %s, slice digest %s", i, got.Sum(), want.Sum())
		}
	}
}

// TestWaiterDigestMatchesMapWalk applies the same adds and fills to the
// waiter table and to the map it replaced, with slot reuse and growth.
func TestWaiterDigestMatchesMapWalk(t *testing.T) {
	w := queue.NewWaiters[memreq.Request](2)
	ref := map[uint64][]memreq.Request{}
	for i := 0; i < 200; i++ {
		r := req(i)
		if i%5 == 4 {
			w.Take(r.LineAddr)
			delete(ref, r.LineAddr)
		} else {
			w.Add(r.LineAddr, r)
			ref[r.LineAddr] = append(ref[r.LineAddr], r)
		}
		got, want := digest.NewHasher(), digest.NewHasher()
		digestWaiters(got, w)
		legacyDigestWaiters(want, ref)
		if got.Sum() != want.Sum() {
			t.Fatalf("step %d: table digest %s, map digest %s", i, got.Sum(), want.Sum())
		}
	}
}
