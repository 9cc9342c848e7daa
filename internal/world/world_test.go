package world

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mptcplab/internal/chaos"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
)

// testPlan is a many-client plan in the fleet's style.
func testPlan(dualHomed bool) Plan {
	return Plan{
		DualHomed: dualHomed,
		ClientIPs: func(i int) (wifi, cell [4]byte) {
			return [4]byte{10, byte(i >> 8), byte(i), 2}, [4]byte{100, byte(64 + i>>8), byte(i), 2}
		},
		Ports:    func(k int) (wifi, cell uint16) { return uint16(40000 + 2*k), uint16(40001 + 2*k) },
		LANQueue: 16 * units.MB,
	}
}

func testAccess(s *sim.Simulator, rng *sim.RNG) Access {
	link := func(name string, rate units.BitRate, delay sim.Time) *netem.Link {
		l := netem.NewLink(s, rng, name)
		l.Rate, l.PropDelay, l.QueueLimit = rate, delay, 256*units.KB
		l.Loss = netem.BernoulliLoss{P: 0.01}
		return l
	}
	return Access{
		WiFiUp: link("wifi-up", 20*units.Mbps, 10*sim.Millisecond), WiFiDown: link("wifi-down", 20*units.Mbps, 10*sim.Millisecond),
		CellUp: link("cell-up", 8*units.Mbps, 40*sim.Millisecond), CellDown: link("cell-down", 8*units.Mbps, 40*sim.Millisecond),
	}
}

const objectSize = 256 << 10

// step is one simulator event as the outside can see it: when it ran
// and how many segments the server had seen by then.
type step struct {
	at   sim.Time
	segs int
}

// drive builds a world on w (which must be fresh or Reset), has every
// client fetch one object — transports rotating MPTCP, TCP-WiFi,
// TCP-cell — and records the run event by event.
func drive(w *World, clients int, plan Plan, seed int64) []step {
	rng := sim.NewRNG(seed)
	w.Build(rng, testAccess(w.Sim, rng), clients, plan)

	segs := 0
	w.Server.AddRawTap(func(netem.Direction, sim.Time, *seg.Segment) { segs++ })
	cfg := mptcp.DefaultConfig()
	fs := &web.FileServer{SizeFor: func(int) int { return objectSize }}
	w.Serve(cfg, rng.Child("srv"), func(Peer) *web.FileServer { return fs })
	for i, c := range w.Clients {
		wifi, cell := c.Addrs()
		p := w.Dial(c, Transport((i+2)%3), mptcp.DialOpts{
			LocalAddrs:     []seg.Addr{wifi, cell},
			JoinAdvertised: plan.DualHomed,
			Config:         cfg,
		}, rng.Child(fmt.Sprint("cli", i)))
		g := web.NewGetter(p.Stream())
		g.Get(objectSize, g.Close)
	}
	var trace []step
	for w.Sim.Now() < 30*sim.Second && w.Sim.Step() {
		trace = append(trace, step{w.Sim.Now(), segs})
	}
	return trace
}

// TestResetWorldIdentical is the arena contract at both scales: a run
// on a world dirtied by an unrelated run and Reset is event-for-event
// the run on a fresh world — the paper's testbed (clients=1) and a
// fleet (clients=50) alike.
func TestResetWorldIdentical(t *testing.T) {
	for _, clients := range []int{1, 50} {
		plan := testPlan(false)
		if clients == 1 {
			plan = Paper(true)
		}
		fresh := drive(New(), clients, plan, 7)
		if len(fresh) < 500 {
			t.Fatalf("clients=%d: only %d events; the workload did not run", clients, len(fresh))
		}
		w := New()
		drive(w, 7, testPlan(true), 11) // dirty it: other size, other plan, other seed
		for round := 1; round <= 2; round++ {
			w.Reset()
			if reused := drive(w, clients, plan, 7); !reflect.DeepEqual(fresh, reused) {
				t.Errorf("clients=%d: reuse %d diverged from the fresh world (%d vs %d events)",
					clients, round, len(reused), len(fresh))
			}
		}
	}
}

// TestIsCellFollowsPlan: classification comes from the world's own
// address plan, for every client, and for nothing else.
func TestIsCellFollowsPlan(t *testing.T) {
	for _, tc := range []struct {
		clients int
		plan    Plan
	}{{1, Paper(false)}, {300, testPlan(true)}} {
		w := New()
		rng := sim.NewRNG(1)
		w.Build(rng, testAccess(w.Sim, rng), tc.clients, tc.plan)
		for i, c := range w.Clients {
			wifiIP, cellIP := tc.plan.ClientIPs(i)
			wifi, cell := c.Addrs()
			if wifi.IP != wifiIP || cell.IP != cellIP {
				t.Fatalf("client %d addresses %v/%v, plan says %v/%v", i, wifi, cell, wifiIP, cellIP)
			}
			if w.IsCell(wifi) || !w.IsCell(cell) {
				t.Errorf("client %d: IsCell(wifi %v)=%v, IsCell(cell %v)=%v", i, wifi, w.IsCell(wifi), cell, w.IsCell(cell))
			}
		}
		if w.IsCell(ServerAddr) || w.IsCell(ServerAddr2) {
			t.Error("a server address classified as cellular")
		}
		want := 6 // four access links and one LAN pair
		if tc.plan.DualHomed {
			want = 8
		}
		if len(w.Links()) != want {
			t.Errorf("dualHomed=%v: %d links, want %d", tc.plan.DualHomed, len(w.Links()), want)
		}
	}
}

// TestPaperPlanPorts pins the testbed's port numbering: 40000/40001
// for the download, 41001 upwards for handover rejoins.
func TestPaperPlanPorts(t *testing.T) {
	w := New()
	rng := sim.NewRNG(1)
	w.Build(rng, testAccess(w.Sim, rng), 1, Paper(false))
	c := w.Clients[0]
	var got []uint16
	for i := 0; i < 3; i++ {
		wifi, cell := c.Addrs()
		got = append(got, wifi.Port, cell.Port)
	}
	if want := []uint16{40000, 40001, 41001, 41001, 41002, 41002}; !reflect.DeepEqual(got, want) {
		t.Errorf("ports %v, want %v", got, want)
	}
}

func TestBuildPanicsOutsideClientRange(t *testing.T) {
	for _, n := range []int{-1, 0, MaxClients + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build with %d clients did not panic", n)
				}
			}()
			w := New()
			rng := sim.NewRNG(1)
			w.Build(rng, testAccess(w.Sim, rng), n, testPlan(false))
		}()
	}
}

// TestArmChaosHandover drives the chaos wiring on the paper's testbed: a
// WiFi handover storm withdraws the client's WiFi address and rejoins
// it on fresh ports, the download survives on cellular, and the monitor
// scores the run with per-path telemetry. A single-path run under the
// same storm (nil live) gets the monitor but no hooks and no telemetry.
func TestArmChaosHandover(t *testing.T) {
	sched, err := chaos.Parse("storm:path=wifi;at=200ms;dur=2s;every=500ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, stack := range []Transport{MPTCP, TCPCell} {
		w := New()
		rng := sim.NewRNG(3)
		w.Build(rng, testAccess(w.Sim, rng), 1, Paper(false))
		c := w.Clients[0]

		var client, server Peer
		var live Live
		if stack == MPTCP {
			live = func(yield func(*Client, *mptcp.Conn, *mptcp.Conn)) { yield(c, client.Conn, server.Conn) }
		}
		mon := w.ArmChaos(sched, 0, live)
		cfg := mptcp.DefaultConfig()
		fs := &web.FileServer{SizeFor: func(int) int { return 4 << 20 }}
		w.Serve(cfg, rng.Child("srv"), func(p Peer) *web.FileServer { server = p; return fs })
		wifi, cell := c.Addrs()
		client = w.Dial(c, stack, mptcp.DialOpts{LocalAddrs: []seg.Addr{wifi, cell}, Config: cfg}, rng.Child("cli"))
		g := web.NewGetter(client.Stream())
		done := false
		g.Get(4<<20, func() { done = true; g.Close(); w.Sim.Stop() })
		w.Sim.RunUntil(2 * sim.Minute)

		rep := mon.Finish()
		if !done || w.FailReason() != "" {
			t.Fatalf("%v: done=%v, fail reason %q", stack, done, w.FailReason())
		}
		if stack != MPTCP {
			if rep.WiFiSteadyRate.N() != 0 {
				t.Errorf("%v: per-path telemetry sampled without live connections", stack)
			}
			continue
		}
		if rep.WiFiSteadyRate.N() == 0 || rep.CellFaultRate.Mean() <= 0 {
			t.Errorf("per-path telemetry missing: %d wifi samples, cell fault mean %.0f",
				rep.WiFiSteadyRate.N(), rep.CellFaultRate.Mean())
		}
		rejoins := 0
		for _, sf := range client.Conn.Subflows() {
			if sf.EP.Local.Port >= 41001 {
				rejoins++
				if w.IsCell(sf.EP.Local) {
					t.Errorf("a WiFi storm rejoined on cellular: %v", sf.EP.Local)
				}
			}
		}
		if rejoins < 2 {
			t.Errorf("%d rejoins over a four-cycle storm", rejoins)
		}
	}
}

// TestResetReleasesPreviousRun: a sweep worker's arena runs a
// 5,000-client point and then small ones, so a Reset world must not pin
// the larger run's hosts — with their conns maps and every endpoint
// still bound — in the slack of the slices it truncates.
func TestResetReleasesPreviousRun(t *testing.T) {
	w := New()
	collected := make(chan struct{})
	func() {
		drive(w, 64, testPlan(false), 1)
		last := w.Clients[len(w.Clients)-1]
		runtime.SetFinalizer(last.Host, func(*netem.Host) { close(collected) })
	}()
	w.Reset()
	drive(w, 1, testPlan(false), 2)
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a client host of the previous, larger run is still reachable from the Reset world")
		}
	}
}

// TestFailReasonFirstLine: a livelocked run is killed by the watchdog
// ArmChaos always arms, and FailReason is its one-line verdict.
func TestFailReasonFirstLine(t *testing.T) {
	w := New()
	w.ArmChaos(chaos.Schedule{}, 0, nil)
	var spin func()
	spin = func() { w.Sim.At(w.Sim.Now(), "spin", spin) }
	w.Sim.At(sim.Second, "spin", spin)
	w.Sim.RunUntil(sim.Minute)
	if r := w.FailReason(); !strings.Contains(r, "livelock") || strings.Contains(r, "\n") {
		t.Fatalf("FailReason = %q", r)
	}
}
