package mptcp

import (
	"testing"

	"mptcplab/internal/sim"
)

// FuzzReorderInsert drives the data-level reorder buffer with an
// arbitrary insertion schedule decoded from the fuzz input — three
// bytes per operation: start offset, length, subflow — and asserts
// after every step that the buffer's accounting invariants hold, the
// delivery point never moves backwards, and delivery callbacks only
// report positive byte counts. The byte widths keep ranges close
// enough together that overlap, duplication, and gap-fill paths all
// get exercised. Every insertion also goes to a second buffer through
// the linear scans the binary searches replaced (oracle_test.go), and
// the two must agree block for block and counter for counter.
func FuzzReorderInsert(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 4, 0, 8, 4, 1})        // in-order run across subflows
	f.Add([]byte{8, 4, 0, 4, 4, 1, 0, 4, 0})        // reversed arrival
	f.Add([]byte{0, 8, 0, 2, 4, 1, 0, 8, 0})        // duplicate + contained overlap
	f.Add([]byte{16, 8, 2, 0, 255, 0, 16, 8, 2})    // big block swallows gaps
	f.Add([]byte{255, 255, 255, 0, 0, 0, 1, 0, 64}) // degenerate lengths

	f.Fuzz(func(t *testing.T, in []byte) {
		const initial = 1
		pair := newReorderPair(initial)
		b := pair.got
		lastDelivered := int64(0)
		b.OnDeliver = func(n int64) {
			if n <= 0 {
				t.Fatalf("OnDeliver(%d): non-positive delivery", n)
			}
		}
		now := sim.Time(0)
		prevNxt := b.RcvNxt()
		for i := 0; i+3 <= len(in); i += 3 {
			start := initial + uint64(in[i])*4
			length := uint64(in[i+1]) % 64 // 0..63, zero included to hit the guard
			subflow := int(in[i+2]) % 4
			now += sim.Millisecond
			pair.insert(t, now, start, start+length, subflow)

			if nxt := b.RcvNxt(); nxt < prevNxt {
				t.Fatalf("rcvNxt went backwards: %d -> %d", prevNxt, nxt)
			} else {
				prevNxt = nxt
			}
			if b.Delivered < lastDelivered {
				t.Fatalf("Delivered went backwards: %d -> %d", lastDelivered, b.Delivered)
			}
			lastDelivered = b.Delivered
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("after op %d (insert [%d,%d) sf=%d): %v", i/3, start, start+length, subflow, err)
			}
		}
		// Flush: insert the full covered range in order; everything
		// buffered must drain and the buffer must end empty.
		pair.insert(t, now+sim.Millisecond, initial, initial+256*4+64, 0)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("after flush: %v", err)
		}
		if b.BufferedBytes() != 0 {
			t.Fatalf("flush left %d bytes buffered", b.BufferedBytes())
		}
	})
}
