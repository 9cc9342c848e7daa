// Package web models the paper's application layer: an HTTP/1.1-style
// file server (the UMass Apache on port 8080) and a wget-like client
// issuing GETs for objects of known size. Payload contents are
// abstract — requests and responses are byte counts framed by fixed
// header sizes — but all bytes flow through the real simulated TCP or
// MPTCP stacks.
package web

import (
	"mptcplab/internal/mptcp"
	"mptcplab/internal/tcp"
)

// Framing constants: a GET request line plus headers, and a response
// status line plus headers, roughly what the paper's wget/Apache
// exchange.
const (
	RequestSize        = 160
	ResponseHeaderSize = 240
)

// Stream abstracts the transport under an HTTP exchange so the same
// application code runs over single-path TCP and MPTCP.
type Stream interface {
	// Write appends n bytes to the send direction.
	Write(n int)
	// Close half-closes the send direction after pending data.
	Close()
	// SetOnData installs the delivery callback (replacing any).
	SetOnData(fn func(n int64))
}

// TCPStream adapts a tcp.Endpoint.
type TCPStream struct{ EP *tcp.Endpoint }

// Write implements Stream.
func (s TCPStream) Write(n int) { s.EP.Write(n) }

// Close implements Stream.
func (s TCPStream) Close() { s.EP.Close() }

// SetOnData implements Stream.
func (s TCPStream) SetOnData(fn func(int64)) {
	s.EP.OnDeliver = func(n int) { fn(int64(n)) }
}

// MPTCPStream adapts an mptcp.Conn.
type MPTCPStream struct{ Conn *mptcp.Conn }

// Write implements Stream.
func (s MPTCPStream) Write(n int) { s.Conn.Write(n) }

// Close implements Stream.
func (s MPTCPStream) Close() { s.Conn.Close() }

// SetOnData implements Stream.
func (s MPTCPStream) SetOnData(fn func(int64)) { s.Conn.OnData = fn }

// FileServer answers GETs with fixed-size bodies.
type FileServer struct {
	// SizeFor returns the body size for the i-th request (0-based) on
	// a connection. Returning a negative size refuses the request and
	// closes the connection.
	SizeFor func(reqIndex int) int
	// CloseAfter closes the connection after this many responses;
	// 0 means close after the first (the paper's one-object fetches),
	// negative means keep alive indefinitely (video streaming).
	CloseAfter int

	// Requests counts GETs served across all connections.
	Requests uint64
}

// ServeStream attaches the server behaviour to one accepted stream.
func (f *FileServer) ServeStream(st Stream) {
	var buffered int64
	served := 0
	st.SetOnData(func(n int64) {
		buffered += n
		for buffered >= RequestSize {
			buffered -= RequestSize
			size := 0
			if f.SizeFor != nil {
				size = f.SizeFor(served)
			}
			if size < 0 {
				st.Close()
				return
			}
			f.Requests++
			st.Write(ResponseHeaderSize + size)
			served++
			limit := f.CloseAfter
			if limit == 0 {
				limit = 1
			}
			if limit > 0 && served >= limit {
				st.Close()
				return
			}
		}
	})
}

// Getter issues sequential GETs on a stream and reports completions.
type Getter struct {
	st        Stream
	remaining int64
	inFlight  bool
	queue     []pendingGet

	// BytesReceived counts all delivered bytes including headers.
	BytesReceived int64
}

type pendingGet struct {
	size   int
	onDone func()
}

// NewGetter wraps a stream; it takes over the stream's data callback.
func NewGetter(st Stream) *Getter {
	g := &Getter{st: st}
	st.SetOnData(g.onData)
	return g
}

// Get requests a body of the given size; onDone fires when the last
// byte (header + body) has been delivered. Gets are serialized in
// FIFO order, as wget would issue them.
func (g *Getter) Get(size int, onDone func()) {
	g.queue = append(g.queue, pendingGet{size: size, onDone: onDone})
	g.maybeIssue()
}

// Close half-closes the underlying stream.
func (g *Getter) Close() { g.st.Close() }

func (g *Getter) maybeIssue() {
	if g.inFlight || len(g.queue) == 0 {
		return
	}
	g.inFlight = true
	g.remaining = int64(ResponseHeaderSize + g.queue[0].size)
	g.st.Write(RequestSize)
}

func (g *Getter) onData(n int64) {
	g.BytesReceived += n
	if !g.inFlight {
		return
	}
	g.remaining -= n
	if g.remaining <= 0 {
		// A pipelined server would not over-deliver; any surplus here
		// belongs to the next response (none, since gets serialize).
		done := g.queue[0].onDone
		g.queue = g.queue[1:]
		g.inFlight = false
		if done != nil {
			done()
		}
		g.maybeIssue()
	}
}
