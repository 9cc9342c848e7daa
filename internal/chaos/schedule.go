// Package chaos turns path disruption into a first-class, schedulable,
// measured subsystem. A Schedule is a declarative, deterministic
// timeline of faults — outages, link flaps, handover storms,
// progressive rate/loss/delay ramps, radio signal fades, loss bursts
// and reordering windows — applied to any topology through a small
// Target adapter; windows that overlap on a path compose. A Monitor
// samples per-flow progress against the schedule's fault windows and
// produces a resilience Report: stall spans, time-to-recover after each
// fault, bytes moved during faults vs steady state, and a
// did-it-degrade-gracefully verdict.
//
// Everything is driven by simulator virtual time, so a chaos run is a
// pure function of (seed, schedule spec): exports are byte-identical
// at any worker count, and the compact spec string rides inside replay
// tokens (`chaos=outage:path=wifi;at=5s;dur=3s`).
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// Path selects which access network a fault hits.
type Path int

// Fault targets.
const (
	WiFi Path = iota
	Cell
	Both
)

// String names the path in spec grammar form.
func (p Path) String() string {
	switch p {
	case WiFi:
		return "wifi"
	case Cell:
		return "cell"
	case Both:
		return "both"
	default:
		return "unknown"
	}
}

func parsePath(s string) (Path, error) {
	switch s {
	case "wifi":
		return WiFi, nil
	case "cell":
		return Cell, nil
	case "both":
		return Both, nil
	default:
		return 0, fmt.Errorf("chaos: unknown path %q (want wifi|cell|both)", s)
	}
}

// Kind is the fault family.
type Kind int

// Fault kinds.
const (
	// Outage takes the path's links down at At and up at At+Dur.
	Outage Kind = iota
	// Flap repeats Count short outages of Dur each, starting every
	// Every from At.
	Flap
	// Storm withdraws the path's addresses and re-adds them on a fresh
	// port, once per Every across [At, At+Dur] — a handover storm.
	Storm
	// Ramp degrades the path progressively across [At, At+Dur] in
	// Steps linear steps: rate down to (1-Depth)×nominal, Loss extra
	// random loss, ExtraDelay extra propagation delay; nominal values
	// snap back at the end of the window.
	Ramp
	// Fade applies the pathmodel raised-cosine signal fade across
	// [At, At+Dur] in Steps steps: capacity dips to (1-Depth)× at the
	// midpoint and recovers symmetrically, with fade-depth loss.
	Fade
	// Loss adds constant random loss Loss on top of the path's own
	// across [At, At+Dur].
	Loss
	// Reorder breaks the path's FIFO contract across [At, At+Dur]: a
	// Depth share of packets is held back up to ExtraDelay, so later
	// ones overtake it, and a Depth/2 share arrives twice.
	Reorder
)

// String names the kind in spec grammar form.
func (k Kind) String() string {
	switch k {
	case Outage:
		return "outage"
	case Flap:
		return "flap"
	case Storm:
		return "storm"
	case Ramp:
		return "ramp"
	case Fade:
		return "fade"
	case Loss:
		return "loss"
	case Reorder:
		return "reorder"
	default:
		return "unknown"
	}
}

// Event is one scheduled fault. Which fields matter depends on Kind;
// Parse fills unused ones with zero values and Spec omits them.
type Event struct {
	Kind Kind
	Path Path
	At   sim.Time // fault start
	Dur  sim.Time // outage length / window length
	// Flap and Storm repetition.
	Every sim.Time
	Count int
	// Ramp, Fade, Loss and Reorder shape.
	Depth      float64
	Loss       float64
	ExtraDelay sim.Time
	Steps      int
}

// Schedule is a named list of fault events applied to one run.
type Schedule struct {
	Name   string
	Events []Event
}

// Empty reports whether the schedule does nothing.
func (sc Schedule) Empty() bool { return len(sc.Events) == 0 }

// Window is one fault interval, used by the Monitor to classify bytes
// and measure time-to-recover.
type Window struct {
	Name       string
	Start, End sim.Time
}

// Windows flattens the schedule into its fault intervals, in start
// order. A Flap contributes one window per repetition; Ramp/Fade/Storm
// contribute their whole active span.
func (sc Schedule) Windows() []Window {
	var ws []Window
	for _, e := range sc.Events {
		switch e.Kind {
		case Flap:
			for i := 0; i < e.Count; i++ {
				at := e.At + sim.Time(i)*e.Every
				ws = append(ws, Window{
					Name:  fmt.Sprintf("%s-%s-%d", e.Kind, e.Path, i),
					Start: at, End: at + e.Dur,
				})
			}
		default:
			ws = append(ws, Window{
				Name:  fmt.Sprintf("%s-%s", e.Kind, e.Path),
				Start: e.At, End: e.At + e.Dur,
			})
		}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	return ws
}

// Named returns a preset schedule by name — the spec grammar's
// starting points, each overridable with key=value settings.
func Named(name string) (Schedule, error) {
	switch name {
	case "outage":
		// The paper's §5 scenario: a mid-transfer WiFi blackout.
		return Schedule{Name: name, Events: []Event{{
			Kind: Outage, Path: WiFi, At: 5 * sim.Second, Dur: 3 * sim.Second,
		}}}, nil
	case "flap":
		// Walking along the edge of AP coverage: 5 half-second drops
		// spaced 2 s apart.
		return Schedule{Name: name, Events: []Event{{
			Kind: Flap, Path: WiFi, At: 2 * sim.Second,
			Dur: 500 * sim.Millisecond, Every: 2 * sim.Second, Count: 5,
		}}}, nil
	case "storm":
		// Handover storm: the WiFi address is withdrawn and re-added
		// every 200 ms for 3 s.
		return Schedule{Name: name, Events: []Event{{
			Kind: Storm, Path: WiFi, At: 2 * sim.Second,
			Dur: 3 * sim.Second, Every: 200 * sim.Millisecond,
		}}}, nil
	case "ramp":
		// Progressive congestion on the cellular sector: capacity
		// drains to 10%, loss climbs to 2%, +50 ms delay, over 10 s.
		return Schedule{Name: name, Events: []Event{{
			Kind: Ramp, Path: Cell, At: 2 * sim.Second, Dur: 10 * sim.Second,
			Depth: 0.9, Loss: 0.02, ExtraDelay: 50 * sim.Millisecond, Steps: 16,
		}}}, nil
	case "fade":
		// Driving through a coverage dip: a deep raised-cosine WiFi
		// fade over 6 s.
		return Schedule{Name: name, Events: []Event{{
			Kind: Fade, Path: WiFi, At: 2 * sim.Second, Dur: 6 * sim.Second,
			Depth: 0.95, Steps: 24,
		}}}, nil
	case "loss":
		// A lossy patch: 5% extra random WiFi loss for 3 s.
		return Schedule{Name: name, Events: []Event{{
			Kind: Loss, Path: WiFi, At: 2 * sim.Second, Dur: 3 * sim.Second, Loss: 0.05,
		}}}, nil
	case "reorder":
		// A misbehaving AP: for 3 s a fifth of WiFi packets arrive up to
		// 150 ms late and a tenth arrive twice.
		return Schedule{Name: name, Events: []Event{{
			Kind: Reorder, Path: WiFi, At: 2 * sim.Second, Dur: 3 * sim.Second,
			Depth: 0.2, ExtraDelay: 150 * sim.Millisecond,
		}}}, nil
	default:
		return Schedule{}, fmt.Errorf("chaos: unknown schedule %q (want outage|flap|storm|ramp|fade|loss|reorder)", name)
	}
}

// PresetNames lists the built-in schedule names.
func PresetNames() []string {
	return []string{"outage", "flap", "storm", "ramp", "fade", "loss", "reorder"}
}

// Parse builds a schedule from a compact spec:
//
//	kind[:key=val;key=val...][+kind[:...]...]
//
// e.g. "outage:path=wifi;at=5s;dur=3s" or "flap+ramp:path=cell".
// Each clause starts from the preset of its kind, then overrides
// fields. Separators are chosen so a spec embeds verbatim in the
// comma-separated replay-token grammar. Keys: path, at, dur, every,
// n (count), depth, loss, delay, steps.
func Parse(spec string) (Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return Schedule{}, nil
	}
	out := Schedule{Name: spec}
	for _, clause := range strings.Split(spec, "+") {
		name, rest, _ := strings.Cut(clause, ":")
		base, err := Named(strings.TrimSpace(name))
		if err != nil {
			return Schedule{}, err
		}
		ev := base.Events[0]
		if rest != "" {
			for _, kv := range strings.Split(rest, ";") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return Schedule{}, fmt.Errorf("chaos: bad setting %q in %q (want key=value)", kv, clause)
				}
				if err := ev.set(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
					return Schedule{}, err
				}
			}
		}
		if err := ev.validate(); err != nil {
			return Schedule{}, err
		}
		out.Events = append(out.Events, ev)
	}
	return out, nil
}

func (e *Event) set(key, val string) error {
	switch key {
	case "path":
		p, err := parsePath(val)
		if err != nil {
			return err
		}
		e.Path = p
	case "at":
		return setTime(&e.At, key, val)
	case "dur":
		return setTime(&e.Dur, key, val)
	case "every":
		return setTime(&e.Every, key, val)
	case "delay":
		return setTime(&e.ExtraDelay, key, val)
	case "n":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("chaos: bad n=%q (want non-negative integer)", val)
		}
		e.Count = n
	case "steps":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("chaos: bad steps=%q (want positive integer)", val)
		}
		e.Steps = n
	case "depth":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("chaos: bad depth=%q (want 0..1)", val)
		}
		e.Depth = f
	case "loss":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("chaos: bad loss=%q (want 0..1)", val)
		}
		e.Loss = f
	default:
		return fmt.Errorf("chaos: unknown setting %q", key)
	}
	return nil
}

func setTime(dst *sim.Time, key, val string) error {
	t, err := units.ParseTime(val)
	if err != nil {
		return fmt.Errorf("chaos: bad %s: %v", key, err)
	}
	*dst = t
	return nil
}

func (e *Event) validate() error {
	if e.Dur <= 0 && e.Kind != Flap {
		return fmt.Errorf("chaos: %s needs dur > 0", e.Kind)
	}
	switch e.Kind {
	case Flap:
		if e.Dur <= 0 || e.Every <= 0 || e.Count < 1 {
			return fmt.Errorf("chaos: flap needs dur > 0, every > 0, n >= 1")
		}
		if e.Dur >= e.Every {
			return fmt.Errorf("chaos: flap dur (%v) must be shorter than its spacing every (%v)", e.Dur, e.Every)
		}
	case Storm:
		if e.Every <= 0 {
			return fmt.Errorf("chaos: storm needs every > 0")
		}
	case Ramp, Fade:
		if e.Steps < 1 {
			return fmt.Errorf("chaos: %s needs steps >= 1", e.Kind)
		}
	case Loss:
		if e.Loss <= 0 {
			return fmt.Errorf("chaos: loss needs loss > 0")
		}
	case Reorder:
		if e.Depth <= 0 {
			return fmt.Errorf("chaos: reorder needs depth > 0")
		}
	}
	return nil
}

// Spec renders the schedule back into the Parse grammar, canonical
// (every meaningful field explicit) so tokens round-trip exactly.
func (sc Schedule) Spec() string {
	if sc.Empty() {
		return "none"
	}
	var clauses []string
	for _, e := range sc.Events {
		kv := []string{"path=" + e.Path.String(), "at=" + FormatTime(e.At), "dur=" + FormatTime(e.Dur)}
		switch e.Kind {
		case Flap:
			kv = append(kv, "every="+FormatTime(e.Every), "n="+strconv.Itoa(e.Count))
		case Storm:
			kv = append(kv, "every="+FormatTime(e.Every))
		case Ramp:
			kv = append(kv,
				"depth="+strconv.FormatFloat(e.Depth, 'g', -1, 64),
				"loss="+strconv.FormatFloat(e.Loss, 'g', -1, 64),
				"delay="+FormatTime(e.ExtraDelay),
				"steps="+strconv.Itoa(e.Steps))
		case Fade:
			kv = append(kv,
				"depth="+strconv.FormatFloat(e.Depth, 'g', -1, 64),
				"steps="+strconv.Itoa(e.Steps))
		case Loss:
			kv = append(kv, "loss="+strconv.FormatFloat(e.Loss, 'g', -1, 64))
		case Reorder:
			kv = append(kv,
				"depth="+strconv.FormatFloat(e.Depth, 'g', -1, 64),
				"delay="+FormatTime(e.ExtraDelay))
		}
		clauses = append(clauses, e.Kind.String()+":"+strings.Join(kv, ";"))
	}
	return strings.Join(clauses, "+")
}

// FormatTime renders a sim duration in the largest exact unit, the
// inverse of units.ParseTime.
func FormatTime(t sim.Time) string {
	switch {
	case t%sim.Second == 0:
		return strconv.FormatInt(int64(t/sim.Second), 10) + "s"
	case t%sim.Millisecond == 0:
		return strconv.FormatInt(int64(t/sim.Millisecond), 10) + "ms"
	default:
		return strconv.FormatInt(int64(t/sim.Microsecond), 10) + "us"
	}
}
