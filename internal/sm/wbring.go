package sm

// wbRing is the writeback ring: one FIFO of events per cycle slot, up to
// ringSize-1 cycles ahead. The slots chain through one shared node arena
// with a free list, so the ring's storage tracks the peak number of
// pending events, not the peak per slot times ringSize, and it stops
// growing once that peak is reached. Node 0 is a sentinel: a zero link
// means "none", which makes the zero value an empty ring.
type wbRing struct {
	head, tail [ringSize]int32 // first and last node of each slot's FIFO
	nodes      []wbNode
	free       int32 // first node of the free chain
}

type wbNode struct {
	ev   wbEvent
	next int32
}

// push appends ev to slot's FIFO.
func (q *wbRing) push(slot int64, ev wbEvent) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, wbNode{}) // the sentinel
		}
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, wbNode{})
	}
	q.nodes[i] = wbNode{ev: ev}
	if t := q.tail[slot]; t != 0 {
		q.nodes[t].next = i
	} else {
		q.head[slot] = i
	}
	q.tail[slot] = i
}

// take detaches slot's FIFO and returns its first node (0 when empty).
// The caller walks the chain with pop.
func (q *wbRing) take(slot int64) int32 {
	i := q.head[slot]
	q.head[slot], q.tail[slot] = 0, 0
	return i
}

// pop returns node i's event and the next node of its chain, and frees i.
// The event is copied out first, so a push while the chain is walked may
// reuse i.
func (q *wbRing) pop(i int32) (wbEvent, int32) {
	n := &q.nodes[i]
	ev, next := n.ev, n.next
	*n = wbNode{next: q.free}
	q.free = i
	return ev, next
}
