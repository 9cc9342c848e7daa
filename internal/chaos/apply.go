package chaos

import (
	"slices"

	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// Target adapts a topology to the schedule: which links belong to each
// path, and (optionally) how to withdraw and restore addresses for
// handover storms. Nil hooks make Storm a link-level no-op; empty link
// slices make a path's faults no-ops — a schedule never fails at
// apply time, it just has nothing to bite on.
type Target struct {
	WiFi, Cell []*netem.Link

	// Withdraw and Restore implement address-level handover for Storm
	// events: Withdraw pulls the path's local addresses out of active
	// connections (REMOVE_ADDR + subflow abort), Restore re-adds them
	// on a fresh port (ADD_ADDR + join). Both are called at most once
	// per storm cycle, in simulator context.
	Withdraw func(Path)
	Restore  func(Path)
}

// Apply schedules every event of the schedule onto the simulator. All
// timers are laid down up front — application is data-independent, so
// the same spec always perturbs the run identically. Link-level windows
// compose: each link's nominal parameters are read here, once, and
// every fault instant recomputes the link from them and every window
// active on it (see links.recompute), so overlapping windows never undo
// each other.
func (sc Schedule) Apply(s *sim.Simulator, tgt Target) {
	ls := nominal(tgt)
	for _, e := range sc.Events {
		switch e.Kind {
		case Outage:
			ls.window(s, e.Path, e.At, e.Dur, "outage", effect{down: true})
		case Flap:
			for i := 0; i < e.Count; i++ {
				ls.window(s, e.Path, e.At+sim.Time(i)*e.Every, e.Dur, "flap", effect{down: true})
			}
		case Loss:
			ls.window(s, e.Path, e.At, e.Dur, "loss", effect{scale: 1, loss: e.Loss})
		case Reorder:
			ls.window(s, e.Path, e.At, e.Dur, "reorder", effect{scale: 1, chaos: &netem.Chaos{
				ReorderProb: e.Depth, DupProb: e.Depth / 2, ExtraDelay: e.ExtraDelay,
			}})
		case Ramp, Fade:
			ls.shaped(s, e)
		case Storm:
			applyStorm(s, tgt, e)
		}
	}
}

// applyStorm alternates Withdraw and Restore across the window: the
// address leaves at each cycle start and returns halfway through it,
// with a final Restore at window end so the path is always handed
// back.
func applyStorm(s *sim.Simulator, tgt Target, e Event) {
	for at := e.At; at < e.At+e.Dur; at += e.Every {
		s.At(at, "chaos-storm-withdraw", func() {
			if tgt.Withdraw != nil {
				tgt.Withdraw(e.Path)
			}
		})
		s.At(at+e.Every/2, "chaos-storm-restore", func() {
			if tgt.Restore != nil {
				tgt.Restore(e.Path)
			}
		})
	}
}

// effect is one active window's current contribution to the links of
// its path: down for outage and flap, otherwise a rate scale, extra
// loss, extra delay and (reorder) a netem.Chaos.
type effect struct {
	path  Path
	down  bool
	scale float64
	loss  float64
	delay sim.Time
	chaos *netem.Chaos
}

// link is one target link with the parameters Apply found on it.
type link struct {
	l     *netem.Link
	cell  bool
	rate  float64
	delay sim.Time
	loss  netem.LossModel
	chaos *netem.Chaos
}

// links is a schedule's view of its target: every link with its
// nominal parameters, and the windows active right now in start order.
type links struct {
	all    []link
	active []*effect
}

func nominal(tgt Target) *links {
	ls := &links{}
	for i, set := range [2][]*netem.Link{tgt.WiFi, tgt.Cell} {
		for _, l := range set {
			ls.all = append(ls.all, link{
				l: l, cell: i == 1,
				rate: float64(l.Rate), delay: l.PropDelay, loss: l.Loss, chaos: l.Chaos,
			})
		}
	}
	return ls
}

// Covers reports whether a fault on p reaches the WiFi (cell false) or
// the cellular access network.
func (p Path) Covers(cell bool) bool { return p == Both || (p == Cell) == cell }

// window makes e active on path p across [at, at+dur].
func (ls *links) window(s *sim.Simulator, p Path, at, dur sim.Time, name string, e effect) {
	e.path = p
	s.At(at, "chaos-"+name, func() { ls.set(&e, true) })
	s.At(at+dur, "chaos-"+name, func() { ls.set(&e, false) })
}

// shaped drives Ramp (linear degradation, abrupt recovery) and Fade
// (raised-cosine dip and symmetric recovery) as Steps discrete updates
// of one window's effect across [At, At+Dur].
func (ls *links) shaped(s *sim.Simulator, e Event) {
	eff := &effect{path: e.Path}
	step := e.Dur / sim.Time(e.Steps)
	for i := 0; i <= e.Steps; i++ {
		s.At(e.At+sim.Time(i)*step, "chaos-"+e.Kind.String(), func() {
			if i == e.Steps {
				ls.set(eff, false)
				return
			}
			frac := float64(i) / float64(e.Steps)
			if e.Kind == Fade {
				eff.scale, eff.loss = pathmodel.SignalFade(frac, e.Depth)
			} else {
				eff.scale = 1 - e.Depth*frac
				eff.loss = e.Loss * frac
				eff.delay = sim.Time(float64(e.ExtraDelay) * frac)
			}
			ls.set(eff, true)
		})
	}
}

// set activates (or updates in place) or deactivates one window, then
// recomputes every link its path covers.
func (ls *links) set(e *effect, on bool) {
	switch i := slices.Index(ls.active, e); {
	case on && i < 0:
		ls.active = append(ls.active, e)
	case !on && i >= 0:
		ls.active = slices.Delete(ls.active, i, i+1)
	}
	for _, k := range ls.all {
		if e.path.Covers(k.cell) {
			ls.recompute(k)
		}
	}
}

// recompute sets a link from its nominal parameters and the windows
// active on it: down while any outage or flap covers it; rate nominal
// times the product of the active scales, floored at 1 %; delay nominal
// plus the sum of the extras; loss the nominal model overlaid with
// 1 − Π(1 − pᵢ), drawn once per packet; and the latest-started active
// reorder window's netem.Chaos. With one window active this makes the
// assignments a lone window always made.
func (ls *links) recompute(k link) {
	down, scale, loss, delay, chaos := false, 1.0, 0.0, sim.Time(0), k.chaos
	for _, e := range ls.active {
		if !e.path.Covers(k.cell) {
			continue
		}
		if e.down {
			down = true
			continue
		}
		scale *= e.scale
		loss += e.loss - loss*e.loss
		delay += e.delay
		if e.chaos != nil {
			chaos = e.chaos
		}
	}
	if scale < 0.01 {
		scale = 0.01 // a shaped link never fully blackholes; that's Outage's job
	}
	k.l.SetDown(down)
	k.l.Rate = units.BitRate(k.rate * scale)
	k.l.PropDelay = k.delay + delay
	k.l.Loss = k.loss
	if loss > 0 {
		k.l.Loss = overlayLoss{base: k.loss, p: loss}
	}
	k.l.Chaos = chaos
}

// overlayLoss adds independent random loss on top of whatever loss
// model the link already had.
type overlayLoss struct {
	base netem.LossModel
	p    float64
}

// Drop consults the base model first so its internal state (e.g. a
// Gilbert-Elliott chain) keeps advancing through the fault.
func (o overlayLoss) Drop(rng *sim.RNG) bool {
	dropped := o.base != nil && o.base.Drop(rng)
	return rng.Bool(o.p) || dropped
}
