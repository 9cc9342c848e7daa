package web

import "testing"

// loopStream is a pair of in-memory streams: what one side writes is
// delivered (synchronously) to the other's data callback. It stands in
// for the transport when testing HTTP framing alone.
type loopStream struct {
	peer   *loopStream
	onData func(int64)
	closed bool
}

func loopPair() (a, b *loopStream) {
	a, b = &loopStream{}, &loopStream{}
	a.peer, b.peer = b, a
	return
}

func (s *loopStream) Write(n int) {
	if s.peer.onData != nil {
		s.peer.onData(int64(n))
	}
}
func (s *loopStream) Close()                   { s.closed = true }
func (s *loopStream) SetOnData(fn func(int64)) { s.onData = fn }

func TestGetterSingleFetch(t *testing.T) {
	cliSide, srvSide := loopPair()
	fs := &FileServer{SizeFor: func(i int) int { return 5000 }}
	fs.ServeStream(srvSide)

	g := NewGetter(cliSide)
	done := 0
	g.Get(5000, func() { done++ })
	if done != 1 {
		t.Fatalf("done=%d", done)
	}
	if g.BytesReceived != 5000+ResponseHeaderSize {
		t.Errorf("received %d", g.BytesReceived)
	}
	if fs.Requests != 1 {
		t.Errorf("server requests = %d", fs.Requests)
	}
	// CloseAfter defaults to one response.
	if !srvSide.closed {
		t.Error("server did not close after single response")
	}
}

func TestGetterSequentialFetches(t *testing.T) {
	cliSide, srvSide := loopPair()
	sizes := []int{100, 2000, 30}
	fs := &FileServer{CloseAfter: -1, SizeFor: func(i int) int { return sizes[i] }}
	fs.ServeStream(srvSide)

	g := NewGetter(cliSide)
	var order []int
	for i, size := range sizes {
		i := i
		g.Get(size, func() { order = append(order, i) })
	}
	if len(order) != 3 || order[0] != 0 || order[2] != 2 {
		t.Fatalf("completion order %v", order)
	}
	want := int64(100 + 2000 + 30 + 3*ResponseHeaderSize)
	if g.BytesReceived != want {
		t.Errorf("received %d, want %d", g.BytesReceived, want)
	}
}

func TestFileServerCloseAfterN(t *testing.T) {
	cliSide, srvSide := loopPair()
	fs := &FileServer{CloseAfter: 2, SizeFor: func(i int) int { return 10 }}
	fs.ServeStream(srvSide)
	g := NewGetter(cliSide)
	g.Get(10, nil)
	if srvSide.closed {
		t.Error("closed after first response despite CloseAfter=2")
	}
	g.Get(10, nil)
	if !srvSide.closed {
		t.Error("not closed after second response")
	}
}

func TestFileServerRefusal(t *testing.T) {
	cliSide, srvSide := loopPair()
	fs := &FileServer{SizeFor: func(i int) int { return -1 }}
	fs.ServeStream(srvSide)
	g := NewGetter(cliSide)
	fired := false
	g.Get(10, func() { fired = true })
	if fired {
		t.Error("refused request completed")
	}
	if !srvSide.closed {
		t.Error("server did not close on refusal")
	}
	if fs.Requests != 0 {
		t.Errorf("refused request counted: %d", fs.Requests)
	}
}

func TestFramingWithFragmentedDelivery(t *testing.T) {
	// Client writes arrive at the server in 7-byte pieces; server
	// responses arrive at the client in 64-byte pieces.
	var cliToSrv func(int64)
	var srvToCli func(int64)

	cli := &funcStream{write: func(n int) {
		for n > 0 {
			c := 7
			if n < c {
				c = n
			}
			cliToSrv(int64(c))
			n -= c
		}
	}, setOnData: func(fn func(int64)) { srvToCli = fn }}
	srv := &funcStream{write: func(n int) {
		for n > 0 {
			c := 64
			if n < c {
				c = n
			}
			srvToCli(int64(c))
			n -= c
		}
	}, setOnData: func(fn func(int64)) { cliToSrv = fn }}

	fs := &FileServer{CloseAfter: -1, SizeFor: func(i int) int { return 1000 }}
	fs.ServeStream(srv)
	g := NewGetter(cli)
	done := 0
	g.Get(1000, func() { done++ })
	g.Get(1000, func() { done++ })
	if done != 2 {
		t.Errorf("done=%d, want 2", done)
	}
	if fs.Requests != 2 {
		t.Errorf("requests=%d", fs.Requests)
	}
}

type funcStream struct {
	write     func(int)
	setOnData func(func(int64))
}

func (s *funcStream) Write(n int)              { s.write(n) }
func (s *funcStream) Close()                   {}
func (s *funcStream) SetOnData(fn func(int64)) { s.setOnData(fn) }
