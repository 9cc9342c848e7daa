package netem

// ring is a growable FIFO of T over a power-of-two circular buffer.
// Links use rings to carry per-packet state from Send to the packet's
// departure and arrival: because a link's departure and arrival times
// are both monotone (busyUntil and lastArrival never move backwards)
// and the simulator breaks ties FIFO, both come due in exactly push
// order, so popping the head (Link.retire, the prebound onArrive)
// replaces a closure per packet. Steady state allocates nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("netem: pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) len() int { return r.n }

// at returns a pointer to the i-th queued element (0 = head) for
// in-place inspection or mutation without disturbing FIFO order.
func (r *ring[T]) at(i int) *T {
	if i < 0 || i >= r.n {
		panic("netem: ring index out of range")
	}
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
