package experiment

import (
	"testing"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// TestPersistentConnectionManyGets regression-tests the video-stream
// workload (§6): a large prefetch plus periodic blocks on one
// keep-alive connection. It once deadlocked when an RTO's head
// retransmission was gated on the pipe estimate.
func TestPersistentConnectionManyGets(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: true, WarmRadio: true, Seed: 7,
	})
	cfg := mptcp.DefaultConfig()
	prefetch := 40 * units.MB
	block := 5 * units.MB
	const blocks = 6
	fs := &web.FileServer{CloseAfter: -1, SizeFor: func(i int) int {
		if i == 0 {
			return prefetch
		}
		return block
	}}
	tb.Serve(cfg, tb.RNG.Child("srv"), func(world.Peer) *web.FileServer { return fs })
	ep := tb.Dial(tb.Clients[0], world.TCPWiFi, mptcp.DialOpts{
		LocalAddrs: []seg.Addr{tb.WiFiAddr, tb.CellAddr},
		Config:     cfg,
	}, tb.RNG.Child("cli")).EP
	g := web.NewGetter(web.TCPStream{EP: ep})

	done := false
	var fetchBlock func(i int)
	fetchBlock = func(i int) {
		issued := tb.Sim.Now()
		g.Get(block, func() {
			if i+1 < blocks {
				wait := 72*sim.Second - (tb.Sim.Now() - issued)
				if wait < 0 {
					wait = 0
				}
				tb.Sim.After(wait, "video.block", func() { fetchBlock(i + 1) })
			} else {
				done = true
				tb.Sim.Stop()
			}
		})
	}
	g.Get(prefetch, func() { fetchBlock(0) })
	tb.Sim.RunUntil(30 * sim.Minute)

	if !done {
		t.Fatalf("stream stalled: received %d bytes, client=%v", g.BytesReceived, ep)
	}
	want := int64(prefetch + blocks*block + (blocks+1)*web.ResponseHeaderSize)
	if g.BytesReceived != want {
		t.Errorf("received %d bytes, want %d", g.BytesReceived, want)
	}
	if fs.Requests != blocks+1 {
		t.Errorf("server served %d requests, want %d", fs.Requests, blocks+1)
	}
}
