package mptcp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Scheduler is the packet-scheduling plugin: the connection's pump
// consults it for every placement decision a multipath sender makes.
//
//   - Pick chooses the subflow that receives the next chunk of
//     unassigned data (or -1 when no subflow can accept data).
//   - Duplicates, called after a chunk lands on its primary subflow,
//     names additional subflows that should carry a copy of the same
//     data-sequence range. Single-copy schedulers return nil;
//     redundant schedulers return every other live path. The
//     receiver's reorder buffer discards whichever copies lose the
//     race and accounts them as duplicate bytes.
//   - ReinjectTarget chooses the live subflow that inherits a
//     presumed-dead subflow's un-acked mappings (or -1 to wait).
//
// The v0.86 default (minrtt) prefers the established subflow with the
// lowest smoothed RTT that still has congestion-window space; that
// policy is what makes the WiFi path the workhorse for small flows
// (§4.1) and lets the cellular path take over for large ones.
type Scheduler interface {
	Name() string
	// Pick returns the index of the subflow to use next, or -1 when no
	// subflow can accept data.
	Pick(subflows []*Subflow) int
	// Duplicates returns the indexes of subflows (excluding primary)
	// that should carry a copy of the chunk just placed on primary.
	// The returned slice is only valid until the next call.
	Duplicates(subflows []*Subflow, primary int) []int
	// ReinjectTarget returns the index of the subflow that should
	// inherit a dead subflow's outstanding data, or -1 to defer.
	ReinjectTarget(subflows []*Subflow, dead *Subflow) int
}

// DeadAfterTimeouts is the liveness threshold: a subflow with this
// many consecutive RTOs is presumed down.
const DeadAfterTimeouts = 2

// schedulerMakers maps canonical scheduler names to constructors.
// Parametrized specs ("weighted:3;1") are handled by ParseScheduler.
var schedulerMakers = map[string]func() Scheduler{
	"minrtt":     func() Scheduler { return &MinRTT{} },
	"roundrobin": func() Scheduler { return &RoundRobin{} },
	"weighted":   func() Scheduler { return &Weighted{} },
	"redundant":  func() Scheduler { return &Redundant{} },
	"backup":     func() Scheduler { return &BackupMode{} },
	"blest":      func() Scheduler { return &BLEST{} },
	"adaptive":   func() Scheduler { return &Adaptive{} },
}

// schedulerAliases maps legacy spellings to canonical names, so
// configs and replay tokens from earlier versions keep working.
var schedulerAliases = map[string]string{
	"":            "minrtt",
	"lowest-rtt":  "minrtt",
	"round-robin": "roundrobin",
}

// SchedulerNames lists the canonical scheduler names, sorted.
func SchedulerNames() []string {
	out := make([]string, 0, len(schedulerMakers))
	for name := range schedulerMakers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ParseScheduler resolves a scheduler spec — a canonical name, a
// legacy alias, or a parametrized form like "weighted:3;2" (static
// per-subflow weights, semicolon-separated so specs nest inside
// comma-separated replay tokens) — or reports a one-line error naming
// the valid choices.
func ParseScheduler(spec string) (Scheduler, error) {
	name, param, hasParam := strings.Cut(spec, ":")
	if canon, ok := schedulerAliases[name]; ok {
		name = canon
	}
	mk, ok := schedulerMakers[name]
	if !ok {
		return nil, fmt.Errorf("mptcp: unknown scheduler %q (valid: %s)",
			spec, strings.Join(SchedulerNames(), ", "))
	}
	if !hasParam {
		return mk(), nil
	}
	if name != "weighted" {
		return nil, fmt.Errorf("mptcp: scheduler %q takes no parameters (got %q)", name, spec)
	}
	var weights []float64
	for _, ws := range strings.Split(param, ";") {
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("mptcp: bad weight %q in %q (want positive numbers, e.g. weighted:3;1)", ws, spec)
		}
		weights = append(weights, w)
	}
	return &Weighted{Weights: weights}, nil
}

// ValidateScheduler rejects unknown scheduler specs with a one-line
// error; CLIs and configs call it at parse time, so a typo fails with a
// message instead of panicking in Dial or the server's accept.
func ValidateScheduler(spec string) error {
	_, err := ParseScheduler(spec)
	return err
}

// singleCopy supplies the default duplicate-transmission and
// reinjection policies shared by every single-copy scheduler: no
// duplicates, and dead subflows hand their data to the lowest-RTT
// live path.
type singleCopy struct{}

// Duplicates implements Scheduler: single-copy schedulers never
// duplicate.
func (singleCopy) Duplicates([]*Subflow, int) []int { return nil }

// ReinjectTarget implements Scheduler: prefer the live (established,
// not itself timing out) subflow with the lowest smoothed RTT.
func (singleCopy) ReinjectTarget(subflows []*Subflow, dead *Subflow) int {
	best := -1
	var bestRTT float64
	for i, sf := range subflows {
		if sf == dead || !sf.EP.Established() {
			continue
		}
		if sf.EP.ConsecutiveTimeouts() >= DeadAfterTimeouts {
			continue
		}
		if rtt := sf.EP.SRTT(); best < 0 || rtt < bestRTT {
			best, bestRTT = i, rtt
		}
	}
	return best
}

// MinRTT is the Linux MPTCP default scheduler (v0.86 "lowest-rtt").
type MinRTT struct{ singleCopy }

// Name implements Scheduler.
func (*MinRTT) Name() string { return "minrtt" }

// Pick implements Scheduler.
func (*MinRTT) Pick(subflows []*Subflow) int {
	best := -1
	var bestRTT float64
	for i, sf := range subflows {
		if !sf.usable() {
			continue
		}
		rtt := sf.EP.SRTT()
		if best < 0 || rtt < bestRTT {
			best, bestRTT = i, rtt
		}
	}
	return best
}

// RoundRobin rotates across live subflows regardless of RTT — an
// ablation showing why the default scheduler matters for reordering
// delay. The rotation is strict: when the subflow whose turn it is
// cannot accept data right now, the scheduler waits for it rather
// than skipping ahead — under an ACK-clocked sender, window space
// opens on one subflow at a time, so a skip-ahead rotation would
// degenerate into fill-whatever-has-space and become observationally
// identical to minrtt. Presumed-dead subflows (DeadAfterTimeouts
// consecutive RTOs) drop out of the rotation so a failed path cannot
// wedge the connection.
type RoundRobin struct {
	singleCopy
	next int
}

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "roundrobin" }

// Pick implements Scheduler.
func (r *RoundRobin) Pick(subflows []*Subflow) int {
	n := len(subflows)
	for k := 0; k < n; k++ {
		i := (r.next + k) % n
		sf := subflows[i]
		if !sf.EP.Established() || sf.EP.ConsecutiveTimeouts() >= DeadAfterTimeouts {
			continue // dead or unjoined paths drop out of the rotation
		}
		if !sf.usable() {
			return -1 // strict rotation: wait for this path's turn
		}
		r.next = i + 1
		return i
	}
	return -1
}

// Weighted splits traffic across subflows in proportion to static
// per-subflow weights (by subflow index; paths beyond the weight list
// get weight 1). It is a deficit scheduler: each pick goes to the
// usable subflow whose carried bytes are furthest below its weighted
// fair share, so the byte split converges on the weight ratio without
// per-chunk randomness.
type Weighted struct {
	singleCopy
	Weights []float64
	spec    string
}

// Name implements Scheduler.
func (w *Weighted) Name() string {
	if len(w.Weights) == 0 {
		return "weighted"
	}
	if w.spec == "" {
		parts := make([]string, len(w.Weights))
		for i, wt := range w.Weights {
			parts[i] = strconv.FormatFloat(wt, 'g', -1, 64)
		}
		w.spec = "weighted:" + strings.Join(parts, ";")
	}
	return w.spec
}

func (w *Weighted) weight(i int) float64 {
	if i < len(w.Weights) {
		return w.Weights[i]
	}
	return 1
}

// Pick implements Scheduler: lowest carried-bytes/weight deficit wins;
// ties go to the lower index. The argmin runs over every live
// established subflow, and when the most-behind subflow cannot accept
// data right now the scheduler waits for it instead of overshooting
// another path's share — the gate that keeps the byte split on the
// weight ratio even under a saturating sender, where a fill-anything
// policy would degenerate to cwnd-proportional placement. Presumed-
// dead subflows (DeadAfterTimeouts consecutive RTOs) are excluded so
// a failed path cannot wedge the connection.
func (w *Weighted) Pick(subflows []*Subflow) int {
	best := -1
	var bestScore float64
	for i, sf := range subflows {
		if !sf.EP.Established() || sf.EP.ConsecutiveTimeouts() >= DeadAfterTimeouts {
			continue
		}
		score := float64(sf.EP.WriteOffset()) / w.weight(i)
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 || !subflows[best].usable() {
		return -1
	}
	return best
}

// Redundant duplicates every chunk on all live subflows: the primary
// copy goes to the lowest-RTT path, and every other established path
// carries a duplicate of the same data-sequence range. Latency and
// loss resilience improve — a single-path blackout costs zero stall,
// since the surviving copies keep the receiver's in-order edge moving
// — at the price of sending each byte once per path. The receiver
// discards the losing copies and accounts them (ReorderBuffer
// DupBytes / Conn DupTxBytes), so goodput metrics stay honest.
type Redundant struct {
	minrtt MinRTT
	dups   []int
}

// Name implements Scheduler.
func (*Redundant) Name() string { return "redundant" }

// Pick implements Scheduler: the primary copy follows the default
// lowest-RTT policy.
func (r *Redundant) Pick(subflows []*Subflow) int {
	return r.minrtt.Pick(subflows)
}

// Duplicates implements Scheduler: every established subflow other
// than the primary carries a copy. Subflows without free window still
// qualify — the copy queues in their send buffer and drains as ACKs
// arrive, which is exactly what keeps data flowing when the primary
// path blacks out.
func (r *Redundant) Duplicates(subflows []*Subflow, primary int) []int {
	r.dups = r.dups[:0]
	for i, sf := range subflows {
		if i == primary || !sf.EP.Established() {
			continue
		}
		r.dups = append(r.dups, i)
	}
	return r.dups
}

// ReinjectTarget implements Scheduler. Chunks placed before a path
// joined exist on only one subflow, so reinjection still matters on
// early-transfer deaths; the receiver dedups any copies that did make
// it across.
func (r *Redundant) ReinjectTarget(subflows []*Subflow, dead *Subflow) int {
	return singleCopy{}.ReinjectTarget(subflows, dead)
}

// BackupMode implements the handover policy of Paasch et al. (CellNet
// 2012), which the paper cites in §7: backup subflows carry data only
// while every regular subflow looks dead — not yet established, or
// with repeated unanswered retransmission timeouts. When a regular
// path recovers (its next ACK resets the timeout count), traffic moves
// back automatically.
type BackupMode struct{ singleCopy }

// Name implements Scheduler.
func (*BackupMode) Name() string { return "backup" }

// Pick implements Scheduler.
func (*BackupMode) Pick(subflows []*Subflow) int {
	pick := func(backup bool) int {
		best := -1
		var bestRTT float64
		for i, sf := range subflows {
			if sf.Backup != backup || !sf.usable() {
				continue
			}
			if !backup && sf.EP.ConsecutiveTimeouts() >= DeadAfterTimeouts {
				continue
			}
			rtt := sf.EP.SRTT()
			if best < 0 || rtt < bestRTT {
				best, bestRTT = i, rtt
			}
		}
		return best
	}
	if i := pick(false); i >= 0 {
		return i
	}
	// All regular subflows are unusable or presumed dead: are any of
	// them actually alive but merely cwnd-limited? If so, wait for
	// them rather than waking the backup path.
	for _, sf := range subflows {
		if !sf.Backup && sf.EP.Established() && sf.EP.ConsecutiveTimeouts() < DeadAfterTimeouts {
			return -1
		}
	}
	return pick(true)
}
