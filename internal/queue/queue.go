// Package queue holds the containers the simulator's cycle loop runs on
// without allocating: Ring, a FIFO on a power-of-two circular buffer, and
// Waiters, a line-keyed table of FIFO waiter lists whose storage is
// recycled from one line to the next. Both grow only when their working
// set exceeds every earlier peak, so once a run has warmed up they never
// allocate again (see DESIGN.md, "Hot-path allocation contract").
package queue

import "slices"

// Ring is a FIFO queue on a power-of-two circular buffer. Push doubles the
// buffer only when it is full, so a ring that has reached its working size
// never allocates again. Pop zeroes the vacated slot: the ring keeps no
// reference to an element it has handed back. The zero value is an empty
// ring that allocates on its first Push.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// NewRing returns an empty ring with room for capacity elements (rounded
// up to a power of two) before its first growth.
func NewRing[T any](capacity int) Ring[T] {
	c := 1
	for c < capacity {
		c <<= 1
	}
	return Ring[T]{buf: make([]T, c)}
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the number of elements the ring holds before it grows.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the back, doubling the buffer first if it is full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// At returns the i-th element from the front (0 is the oldest). The
// pointer is valid until the next Push or Pop. At panics when i is out of
// range.
func (r *Ring[T]) At(i int) *T {
	if uint(i) >= uint(r.n) {
		panic("queue: Ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// Pop removes and returns the front element. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("queue: Pop of an empty Ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer, unwrapping the queue to start at index 0.
func (r *Ring[T]) grow() {
	c := 2 * len(r.buf)
	if c == 0 {
		c = 8
	}
	buf := make([]T, c)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// Waiters maps each outstanding line to the FIFO list of waiters parked on
// its fill. Every line present holds one slot; Take frees the slot and the
// next new line reuses it, list backing array included. Lines are found
// through an open-addressed index (linear probing, backward-shift delete),
// so the table has no tombstones and no Go map to rehash behind its back.
type Waiters[T any] struct {
	index []int32  // hash position -> slot, or -1; len is a power of two
	line  []uint64 // slot -> line it holds
	lists [][]T    // slot -> waiters in arrival order
	free  []int32  // slots holding no line
	n     int      // lines present
}

// NewWaiters returns a table sized for lines distinct lines (the owning
// cache's MSHR count) before its first growth. A Waiters must be made by
// NewWaiters; its zero value is not usable.
func NewWaiters[T any](lines int) *Waiters[T] {
	w := &Waiters[T]{}
	w.resize(lines)
	return w
}

// Len returns the number of lines with waiters.
func (w *Waiters[T]) Len() int { return w.n }

// Add appends v to line's waiter list, giving a new line a free slot.
func (w *Waiters[T]) Add(line uint64, v T) {
	pos, ok := w.find(line)
	if !ok {
		if len(w.free) == 0 {
			w.resize(2 * len(w.line))
			pos, _ = w.find(line)
		}
		s := w.free[len(w.free)-1]
		w.free = w.free[:len(w.free)-1]
		w.line[s] = line
		w.lists[s] = w.lists[s][:0]
		w.index[pos] = s
		w.n++
	}
	s := w.index[pos]
	w.lists[s] = append(w.lists[s], v)
}

// Get returns line's waiter list in arrival order (nil when absent). The
// slice is valid until the next Add or Take.
func (w *Waiters[T]) Get(line uint64) []T {
	pos, ok := w.find(line)
	if !ok {
		return nil
	}
	return w.lists[w.index[pos]]
}

// Take removes line and returns its waiter list in arrival order (nil
// when absent). The slice aliases the freed slot's storage: it is valid
// until the next Add.
func (w *Waiters[T]) Take(line uint64) []T {
	pos, ok := w.find(line)
	if !ok {
		return nil
	}
	s := w.index[pos]
	w.remove(pos)
	w.free = append(w.free, s)
	w.n--
	return w.lists[s]
}

// SortedLines returns every line present in ascending order (the order
// state digests walk the table in).
func (w *Waiters[T]) SortedLines() []uint64 {
	lines := make([]uint64, 0, w.n)
	for _, s := range w.index {
		if s >= 0 {
			lines = append(lines, w.line[s])
		}
	}
	slices.Sort(lines)
	return lines
}

// home returns line's preferred index position (Fibonacci hashing, so
// line-aligned addresses spread across the table).
func (w *Waiters[T]) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> 32 & uint64(len(w.index)-1))
}

// find returns line's index position and true, or the empty position
// where it would be inserted and false.
func (w *Waiters[T]) find(line uint64) (int, bool) {
	mask := len(w.index) - 1
	for i := w.home(line); ; i = (i + 1) & mask {
		s := w.index[i]
		if s < 0 {
			return i, false
		}
		if w.line[s] == line {
			return i, true
		}
	}
}

// remove empties index position i, shifting later entries of its probe
// run back so every remaining line stays reachable from its home.
func (w *Waiters[T]) remove(i int) {
	mask := len(w.index) - 1
	for j := (i + 1) & mask; w.index[j] >= 0; j = (j + 1) & mask {
		h := w.home(w.line[w.index[j]])
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-h)&mask >= (j-i)&mask {
			w.index[i] = w.index[j]
			i = j
		}
	}
	w.index[i] = -1
}

// resize gives the table room for at least lines distinct lines: the index
// is rebuilt at a power of two of at least 2*lines positions, keeping the
// load factor at or under one half, and the new slots join the free list.
func (w *Waiters[T]) resize(lines int) {
	size := 8
	for size < 2*lines {
		size <<= 1
	}
	old := w.index
	w.index = make([]int32, size)
	for i := range w.index {
		w.index[i] = -1
	}
	for _, s := range old {
		if s >= 0 {
			pos, _ := w.find(w.line[s])
			w.index[pos] = s
		}
	}
	// The free list gets room for every slot, so Take never grows it.
	slots, had := size/2, len(w.line)
	w.line = append(w.line, make([]uint64, slots-had)...)
	w.lists = append(w.lists, make([][]T, slots-had)...)
	free := make([]int32, len(w.free), slots)
	copy(free, w.free)
	for s := had; s < slots; s++ {
		free = append(free, int32(s))
	}
	w.free = free
}
