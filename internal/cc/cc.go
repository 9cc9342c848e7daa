// Package cc implements the congestion-avoidance algorithms compared
// in the paper (§2.2.2): uncoupled TCP New Reno ("reno"), the coupled
// algorithm of RFC 6356 ("coupled", Linux MPTCP's default), and OLIA
// ("olia", Khalili et al., CoNEXT 2012).
//
// Controllers operate on congestion windows measured in packets (MSS
// units, fractional), as the paper's formulas do. Slow start, ssthresh
// management, and recovery mechanics stay in the TCP sender; a
// Controller only answers two questions: by how much does flow i's
// window grow for an ACK in congestion avoidance, and what is flow i's
// window after a loss.
package cc

import "fmt"

// Flow exposes the per-subflow state a controller may read. All of a
// connection's subflows are visible to the controller, which is what
// makes coupling possible.
type Flow interface {
	// Cwnd is the flow's congestion window in packets (fractional).
	Cwnd() float64
	// SRTT is the flow's smoothed round-trip time in seconds. It is
	// never zero once the flow has a sample; before the first sample
	// implementations return a configured initial estimate.
	SRTT() float64
	// Established reports whether the subflow has completed its
	// handshake and participates in transmission. Controllers ignore
	// unestablished flows.
	Established() bool
	// AckedSinceLoss is the number of bytes acknowledged since the
	// flow's last loss event (l1 in the OLIA paper).
	AckedSinceLoss() int64
	// AckedPrevLossInterval is the number of bytes acknowledged
	// between the flow's two most recent loss events (l2 in the OLIA
	// paper).
	AckedPrevLossInterval() int64
}

// Controller computes window evolution across a set of coupled flows.
type Controller interface {
	// Name identifies the algorithm ("reno", "coupled", "olia").
	Name() string
	// Increase returns the congestion-avoidance window increase, in
	// packets, for flow flows[i] upon an ACK covering ackedPackets
	// (usually 1, more with delayed/stretched ACKs).
	Increase(flows []Flow, i int, ackedPackets float64) float64
	// OnLoss returns flow flows[i]'s new window, in packets, after a
	// loss event.
	OnLoss(flows []Flow, i int) float64
}

// New returns the controller with the given name; "" is coupled, the
// paper's (and Linux MPTCP's) default.
func New(name string) (Controller, error) {
	switch name {
	case "reno":
		return Reno{}, nil
	case "", "coupled", "lia":
		return Coupled{}, nil
	case "olia":
		return OLIA{}, nil
	default:
		return nil, fmt.Errorf("cc: unknown controller %q", name)
	}
}

// Names lists the available controllers in the order the paper
// discusses them.
func Names() []string { return []string{"reno", "coupled", "olia"} }

// activeFlow reports whether a flow participates in transmission.
// Controllers filter with this inline rather than building a filtered
// slice: Increase runs on every ACK, so it must not allocate.
func activeFlow(f Flow) bool { return f.Established() && f.Cwnd() > 0 }

// halve is the common multiplicative decrease: all three paper
// controllers use unmodified TCP behaviour on loss, w_i <- w_i/2,
// floored at one packet.
func halve(w float64) float64 {
	w /= 2
	if w < 1 {
		w = 1
	}
	return w
}

// Reno is uncoupled TCP New Reno on every subflow: the paper's
// baseline. For each ACK on flow i, w_i += 1/w_i; on loss, w_i /= 2.
// It does not balance congestion and is unfair to single-path users at
// shared bottlenecks (paper §4.2).
type Reno struct{}

// Name implements Controller.
func (Reno) Name() string { return "reno" }

// Increase implements Controller.
func (Reno) Increase(flows []Flow, i int, acked float64) float64 {
	w := flows[i].Cwnd()
	if w <= 0 {
		return 0
	}
	return acked / w
}

// OnLoss implements Controller.
func (Reno) OnLoss(flows []Flow, i int) float64 { return halve(flows[i].Cwnd()) }

// Coupled is the RFC 6356 linked-increase algorithm (LIA), the default
// MPTCP controller at the time of the paper. For each ACK on flow i,
//
//	w_i += min(a/w_total, 1/w_i)
//
// where a = w_total * max_p(w_p/rtt_p^2) / (sum_p w_p/rtt_p)^2 couples
// the aggregate increase to take no more than a single TCP on the best
// path.
type Coupled struct{}

// Name implements Controller.
func (Coupled) Name() string { return "coupled" }

// Increase implements Controller.
func (Coupled) Increase(flows []Flow, i int, acked float64) float64 {
	w := flows[i].Cwnd()
	if w <= 0 {
		return 0
	}
	nAct := 0
	var totalW, denom, best float64
	for _, f := range flows {
		if !activeFlow(f) {
			continue
		}
		nAct++
		wp, rtt := f.Cwnd(), f.SRTT()
		if rtt <= 0 {
			continue
		}
		totalW += wp
		denom += wp / rtt
		if v := wp / (rtt * rtt); v > best {
			best = v
		}
	}
	if nAct <= 1 || totalW <= 0 || denom <= 0 {
		return acked / w
	}
	alpha := totalW * best / (denom * denom)
	inc := alpha / totalW
	if own := 1 / w; own < inc {
		inc = own
	}
	return acked * inc
}

// OnLoss implements Controller.
func (Coupled) OnLoss(flows []Flow, i int) float64 { return halve(flows[i].Cwnd()) }
