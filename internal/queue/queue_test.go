package queue

import (
	"slices"
	"testing"
)

// drain pops every element of r in order.
func drain(r *Ring[int]) []int {
	var out []int
	for r.Len() > 0 {
		out = append(out, r.Pop())
	}
	return out
}

func TestRingFIFOAndCapacityRounding(t *testing.T) {
	r := NewRing[int](5)
	if r.Cap() != 8 {
		t.Fatalf("NewRing(5) cap %d, want 8", r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	if got := *r.At(2); got != 2 {
		t.Fatalf("At(2) = %d, want 2", got)
	}
	if got := drain(&r); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("FIFO order broken: %v", got)
	}
}

// TestRingWrapAround cycles a full ring past its end many times: order
// holds and the buffer never grows.
func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](4)
	next, want := 0, 0
	for round := 0; round < 10; round++ {
		for r.Len() < r.Cap() {
			r.Push(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if got := r.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	if r.Cap() != 4 {
		t.Fatalf("a ring never pushed past full grew to %d", r.Cap())
	}
	for _, v := range drain(&r) {
		if v != want {
			t.Fatalf("drain popped %d, want %d", v, want)
		}
		want++
	}
}

// TestRingGrowWhileWrapped fills a ring whose head sits mid-buffer (so
// the queue wraps the end) and pushes once more: the growth must unwrap
// the queue in FIFO order.
func TestRingGrowWhileWrapped(t *testing.T) {
	r := NewRing[int](8)
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	for i := 0; i < 5; i++ {
		r.Pop()
	}
	for i := 8; i < 13; i++ {
		r.Push(i) // wraps: 5..12 occupy the buffer with head at 5
	}
	r.Push(13) // full: doubles
	if r.Cap() != 16 {
		t.Fatalf("cap after growth %d, want 16", r.Cap())
	}
	for i := 0; i < r.Len(); i++ {
		if got := *r.At(i); got != 5+i {
			t.Fatalf("At(%d) = %d after growth, want %d", i, got, 5+i)
		}
	}
	if got := drain(&r); !slices.Equal(got, []int{5, 6, 7, 8, 9, 10, 11, 12, 13}) {
		t.Fatalf("FIFO order broken across growth: %v", got)
	}
}

func TestRingZeroValueAndPopClearsSlot(t *testing.T) {
	var r Ring[*int]
	v := 7
	r.Push(&v)
	if r.Pop() != &v {
		t.Fatal("zero-value ring lost its element")
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

func TestRingSteadyStateAllocatesNothing(t *testing.T) {
	r := NewRing[int](16)
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			r.Push(i)
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}); n != 0 {
		t.Fatalf("%v allocs per push/pop round at working size, want 0", n)
	}
}

func TestRingAtOutOfRangePanics(t *testing.T) {
	r := NewRing[int](4)
	r.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("At(1) on a one-element ring must panic")
		}
	}()
	r.At(1)
}

// TestWaitersSlotReuseAfterTake pins the recycling rule: the slot (and its
// list's backing array) that a filled line frees is the one the next new
// line takes, with no allocation.
func TestWaitersSlotReuseAfterTake(t *testing.T) {
	w := NewWaiters[int](4)
	w.Add(0x100, 1)
	w.Add(0x100, 2)
	w.Add(0x200, 3)
	got := w.Take(0x100)
	if !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("Take returned %v, want [1 2]", got)
	}
	if w.Len() != 1 || w.Get(0x100) != nil {
		t.Fatalf("taken line still present (len %d)", w.Len())
	}
	freed := &got[0]
	if n := testing.AllocsPerRun(100, func() {
		w.Add(0x300, 4)
		w.Add(0x300, 5)
		w.Take(0x300)
	}); n != 0 {
		t.Fatalf("%v allocs per add/take on a recycled slot, want 0", n)
	}
	w.Add(0x300, 6)
	if l := w.Get(0x300); &l[0] != freed || l[0] != 6 || len(l) != 1 {
		t.Fatalf("new line did not reuse the freed slot's list: %v", l)
	}
}

// TestWaitersMatchesMap drives the table and a map[uint64][]int with the
// same adds and takes, lines chosen from a small set so probe runs collide
// (often, in the 16-position table of the second case) and the table grows
// past its initial size, and requires equal contents after every
// operation.
func TestWaitersMatchesMap(t *testing.T) {
	for _, c := range []struct{ hint, lines int }{{2, 40}, {4, 6}} {
		checkWaitersAgainstMap(t, c.hint, uint64(c.lines))
	}
}

func checkWaitersAgainstMap(t *testing.T, hint int, distinct uint64) {
	t.Helper()
	w := NewWaiters[int](hint)
	ref := map[uint64][]int{}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for op := 0; op < 20000; op++ {
		line := rnd(distinct) * 128
		if rnd(3) == 0 {
			got, want := w.Take(line), ref[line]
			delete(ref, line)
			if !slices.Equal(got, want) {
				t.Fatalf("op %d: Take(%#x) = %v, want %v", op, line, got, want)
			}
		} else {
			w.Add(line, op)
			ref[line] = append(ref[line], op)
		}
		if w.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", op, w.Len(), len(ref))
		}
		lines := w.SortedLines()
		want := make([]uint64, 0, len(ref))
		for la := range ref {
			want = append(want, la)
		}
		slices.Sort(want)
		if !slices.Equal(lines, want) {
			t.Fatalf("op %d: lines %v, want %v", op, lines, want)
		}
		for _, la := range want {
			if !slices.Equal(w.Get(la), ref[la]) {
				t.Fatalf("op %d: Get(%#x) = %v, want %v", op, la, w.Get(la), ref[la])
			}
		}
	}
}
