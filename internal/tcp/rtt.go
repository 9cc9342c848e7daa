package tcp

import "mptcplab/internal/sim"

// rttEstimator implements the RFC 6298 retransmission-timeout
// calculation with Karn's rule applied by the caller (only samples
// from unretransmitted segments are fed in).
type rttEstimator struct {
	srtt   sim.Time
	rttvar sim.Time
	rto    sim.Time
	minRTO sim.Time
	valid  bool // a sample has been taken
}

func newRTTEstimator(minRTO sim.Time) rttEstimator {
	return rttEstimator{rto: initialRTO, minRTO: minRTO}
}

// Sample folds one RTT measurement into the estimator.
func (e *rttEstimator) Sample(rtt sim.Time) {
	if rtt <= 0 {
		rtt = sim.Microsecond
	}
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
	} else {
		// RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
		//           srtt   = 7/8 srtt  + 1/8 rtt
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.rto = e.srtt + 4*e.rttvar
	e.clamp()
}

// Backoff doubles the RTO after a timeout (Karn's algorithm).
func (e *rttEstimator) Backoff() {
	e.rto *= 2
	e.clamp()
}

func (e *rttEstimator) clamp() {
	if e.rto < e.minRTO {
		e.rto = e.minRTO
	}
	if e.rto > maxRTO {
		e.rto = maxRTO
	}
}

// RTO reports the current retransmission timeout.
func (e *rttEstimator) RTO() sim.Time { return e.rto }

// SRTT reports the smoothed RTT, or 0 before any sample.
func (e *rttEstimator) SRTT() sim.Time {
	if !e.valid {
		return 0
	}
	return e.srtt
}

// HasSample reports whether at least one measurement was folded in.
func (e *rttEstimator) HasSample() bool { return e.valid }
