package mptcp

import (
	"strings"
	"testing"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
)

// mkSubflows builds established subflows with distinct RTTs on a live
// two-path harness, so scheduler unit tests exercise real endpoints.
func mkSubflows(t *testing.T) (fast, slow *Subflow, tn *twoPathNet) {
	t.Helper()
	cell := defaultCell()
	cell.prop = 100 * sim.Millisecond
	tn = buildTwoPath(t, defaultWifi(), cell, false)
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, DefaultConfig(), tn.rng.Child("srv"))
	srv.OnConn = func(c *Conn) {}
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs: []seg.Addr{tn.wifiAddr, tn.cellAddr},
		Labels:     []string{"wifi", "cell"},
		ServerAddr: tn.srvAddr,
		Config:     DefaultConfig(),
	}, tn.rng.Child("cli"))
	tn.sim.RunUntil(2 * sim.Second)
	sfs := conn.Subflows()
	if len(sfs) != 2 || !sfs[0].EP.Established() || !sfs[1].EP.Established() {
		t.Fatal("subflows not established")
	}
	return sfs[0], sfs[1], tn
}

func TestLowestRTTPrefersFastPath(t *testing.T) {
	fast, slow, _ := mkSubflows(t)
	s := mustScheduler(t, "lowest-rtt")
	if got := s.Pick([]*Subflow{slow, fast}); got != 1 {
		t.Errorf("picked index %d (rtt %v), want the fast path (rtt %v)",
			got, slow.EP.SRTTTime(), fast.EP.SRTTTime())
	}
}

func TestSchedulerSkipsUnusableSubflows(t *testing.T) {
	fast, slow, _ := mkSubflows(t)
	// Exhaust the fast path's window.
	fast.EP.Write(int(fast.EP.SendSpace()))
	if fast.usable() {
		t.Fatal("fast path still has space; test premise broken")
	}
	s := mustScheduler(t, "lowest-rtt")
	if got := s.Pick([]*Subflow{fast, slow}); got != 1 {
		t.Errorf("picked %d, want the slow-but-usable path", got)
	}
	slow.EP.Write(int(slow.EP.SendSpace()))
	if got := s.Pick([]*Subflow{fast, slow}); got != -1 {
		t.Errorf("picked %d with no usable subflow, want -1", got)
	}
}

func TestBackupModeHoldsBackupInReserve(t *testing.T) {
	fast, slow, _ := mkSubflows(t)
	slow.Backup = true
	s := mustScheduler(t, "backup")
	if got := s.Pick([]*Subflow{fast, slow}); got != 0 {
		t.Errorf("picked %d, want the regular path", got)
	}
	// Regular path cwnd-limited but alive: wait rather than waking the
	// backup.
	fast.EP.Write(int(fast.EP.SendSpace()))
	if got := s.Pick([]*Subflow{fast, slow}); got != -1 {
		t.Errorf("picked %d while regular path merely cwnd-limited, want -1", got)
	}
}

// mustScheduler is ParseScheduler for a spec the test knows is valid.
func mustScheduler(t *testing.T, spec string) Scheduler {
	t.Helper()
	s, err := ParseScheduler(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSchedulerNames(t *testing.T) {
	for _, name := range SchedulerNames() {
		if s := mustScheduler(t, name); s.Name() != name {
			t.Errorf("ParseScheduler(%q).Name() = %q", name, s.Name())
		}
	}
	// Legacy aliases resolve to their canonical plugins.
	for alias, canon := range map[string]string{
		"": "minrtt", "lowest-rtt": "minrtt", "round-robin": "roundrobin",
	} {
		if got := mustScheduler(t, alias).Name(); got != canon {
			t.Errorf("ParseScheduler(%q).Name() = %q, want %q", alias, got, canon)
		}
	}
}

// A connection whose config names no scheduler the package knows is a
// caller that skipped validation: the dial panics rather than quietly
// running minrtt.
func TestDialPanicsOnUnknownScheduler(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	cfg := DefaultConfig()
	cfg.Scheduler = "bogus"
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Dial with scheduler \"bogus\" did not panic")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("panic %v does not name the scheduler", r)
		}
	}()
	Dial(tn.net, tn.client, DialOpts{
		LocalAddrs: []seg.Addr{tn.wifiAddr, tn.cellAddr},
		Labels:     []string{"wifi", "cell"},
		ServerAddr: tn.srvAddr,
		Config:     cfg,
	}, tn.rng.Child("cli"))
}

func TestParseSchedulerValidation(t *testing.T) {
	for _, spec := range []string{
		"minrtt", "roundrobin", "weighted", "redundant", "backup",
		"blest", "adaptive",
		"lowest-rtt", "round-robin", "", "weighted:3;1", "weighted:0.5;2;1",
	} {
		if err := ValidateScheduler(spec); err != nil {
			t.Errorf("ValidateScheduler(%q) = %v, want nil", spec, err)
		}
	}
	for _, spec := range []string{
		"bogus", "minrtt:2", "weighted:", "weighted:a;b", "weighted:-1;2", "weighted:0",
	} {
		err := ValidateScheduler(spec)
		if err == nil {
			t.Errorf("ValidateScheduler(%q) = nil, want error", spec)
			continue
		}
		if s := err.Error(); strings.Contains(s, "\n") {
			t.Errorf("ValidateScheduler(%q) error spans lines: %q", spec, s)
		}
	}
	s, err := ParseScheduler("weighted:3;1")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "weighted:3;1" {
		t.Errorf("weighted spec round-trip: Name() = %q", got)
	}
}

func TestWeightedPickFollowsDeficit(t *testing.T) {
	fast, slow, _ := mkSubflows(t)
	w := &Weighted{Weights: []float64{3, 1}}
	sfs := []*Subflow{fast, slow}
	// Nothing written yet: both deficits are zero, lowest index wins.
	if got := w.Pick(sfs); got != 0 {
		t.Fatalf("initial pick %d, want 0", got)
	}
	// Load subflow 0 well past 3x subflow 1: deficit moves to 1.
	fast.EP.Write(6000)
	slow.EP.Write(1000)
	if got := w.Pick(sfs); got != 1 {
		t.Errorf("pick %d after 6000/1000 bytes at weights 3:1, want 1", got)
	}
	// And beyond the ratio the other way.
	slow.EP.Write(4000)
	if got := w.Pick(sfs); got != 0 {
		t.Errorf("pick %d after 6000/5000 bytes at weights 3:1, want 0", got)
	}
}

func TestRedundantDuplicatesOnAllEstablished(t *testing.T) {
	fast, slow, _ := mkSubflows(t)
	r := &Redundant{}
	sfs := []*Subflow{fast, slow}
	if got := r.Pick(sfs); got != 0 {
		t.Fatalf("primary pick %d, want the fast path", got)
	}
	dups := r.Duplicates(sfs, 0)
	if len(dups) != 1 || dups[0] != 1 {
		t.Errorf("Duplicates = %v, want [1]", dups)
	}
	// A window-limited path still carries copies (they queue), but a
	// non-established one must not.
	slow.EP.Write(int(slow.EP.SendSpace()))
	if dups := r.Duplicates(sfs, 0); len(dups) != 1 {
		t.Errorf("window-limited duplicate target dropped: %v", dups)
	}
}

func TestSingleCopySchedulersNeverDuplicate(t *testing.T) {
	fast, slow, _ := mkSubflows(t)
	sfs := []*Subflow{fast, slow}
	for _, name := range []string{"minrtt", "roundrobin", "weighted", "backup"} {
		s := mustScheduler(t, name)
		if i := s.Pick(sfs); i >= 0 {
			if dups := s.Duplicates(sfs, i); len(dups) != 0 {
				t.Errorf("%s.Duplicates = %v, want none", name, dups)
			}
		}
	}
}

// The 8 MB receive-buffer default never limits the paper's transfers;
// verify the config plumbs through to subflow windows.
func TestSharedWindowReflectsConfig(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	cfg := DefaultConfig()
	cfg.TCP.RcvBuf = 1 * units.MB
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	srv.OnConn = func(c *Conn) {}
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs: []seg.Addr{tn.wifiAddr, tn.cellAddr},
		ServerAddr: tn.srvAddr,
		Config:     cfg,
	}, tn.rng.Child("cli"))
	tn.sim.RunUntil(1 * sim.Second)
	if got := conn.sharedWindow(); got != 1*units.MB {
		t.Errorf("shared window %d, want 1MB", got)
	}
	_ = tcp.StateEstablished
}
