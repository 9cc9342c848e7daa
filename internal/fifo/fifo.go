// Package fifo provides the head-popped slice queue the TCP sender's
// in-flight records and MPTCP's DSS mappings share: both are appended
// in order, acknowledged from the front, and searched or walked in
// between, so the live elements must stay one contiguous slice.
package fifo

// Queue is a FIFO whose live elements are the contiguous slice Items
// returns. Drop advances a head index instead of rewriting the slice;
// Push reclaims the dead prefix only once it outweighs the live part,
// so both are amortised O(1) and a queue that has reached its working
// size never allocates again. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Items returns the live elements, oldest first. The slice aliases the
// queue's storage: it is valid until the next Push.
func (q *Queue[T]) Items() []T { return q.buf[q.head:] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full, and mostly dead: slide the live part down rather than
		// grow. At least head pushes fit before the next slide and the
		// slide copies fewer than head elements.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Drop removes the n oldest elements.
func (q *Queue[T]) Drop(n int) {
	clear(q.buf[q.head : q.head+n])
	q.head += n
	q.rewind()
}

// Truncate keeps only the n oldest elements.
func (q *Queue[T]) Truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
	q.rewind()
}

// rewind restarts an emptied queue at the front of its storage.
func (q *Queue[T]) rewind() {
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
