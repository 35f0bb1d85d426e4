package noc

// pktQueue is a FIFO of packets backed by a ring buffer. The seed
// implementation used bare slices with copy(q, q[1:]) pops, which made
// draining an n-packet queue O(n²) and showed up in injection-heavy runs;
// head-index pops are O(1) and steady-state operation never allocates
// once the ring has grown to the queue's working size.
type pktQueue struct {
	buf  []*Packet
	head int
	n    int
}

// newPktQueue returns a queue with capacity for cap packets before the
// first grow; cap <= 0 defers allocation to the first Push.
func newPktQueue(cap int) pktQueue {
	var q pktQueue
	if cap > 0 {
		q.buf = make([]*Packet, cap)
	}
	return q
}

// Len returns the number of queued packets.
func (q *pktQueue) Len() int { return q.n }

// Push appends p at the tail, growing the ring if full.
func (q *pktQueue) Push(p *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

// Pop removes and returns the head packet, or nil if empty.
func (q *pktQueue) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil // release the reference
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

// Peek returns the head packet without removing it, or nil if empty.
func (q *pktQueue) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.buf[q.head]
}

// grow doubles the ring, unrolling the wrapped contents.
//
//drain:coldpath amortized ring growth; steady-state Step never triggers it (TestStepAllocs pins this)
func (q *pktQueue) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 4
	}
	buf := make([]*Packet, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}
