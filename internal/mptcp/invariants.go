package mptcp

import (
	"fmt"
)

// CheckInvariants verifies the connection's data-sequence bookkeeping:
// per-subflow mapping structure, data-level ACK bounds, reassembly
// buffer consistency, and receive-buffer occupancy against the
// advertised shared buffer. It is the invariant checker's observation
// point into MPTCP state and costs nothing unless called.
func (c *Conn) CheckInvariants() error {
	if c.sndNxtData > c.sndEndData {
		return fmt.Errorf("mptcp %s: assigned data %d beyond written %d", c.Name, c.sndNxtData, c.sndEndData)
	}
	if c.dataAck > c.sndNxtData {
		return fmt.Errorf("mptcp %s: peer data-ACK %d beyond assigned data %d", c.Name, c.dataAck, c.sndNxtData)
	}

	for _, sf := range c.subflows {
		var prevEnd int64
		var prevDataEnd uint64
		for i, m := range sf.mappings.Items() {
			if m.length <= 0 {
				return fmt.Errorf("mptcp %s sf%d: mapping %d empty (len %d)", c.Name, sf.ID, i, m.length)
			}
			if m.off < 0 {
				return fmt.Errorf("mptcp %s sf%d: mapping %d negative offset %d", c.Name, sf.ID, i, m.off)
			}
			if i > 0 && m.off < prevEnd {
				// A subflow byte covered by two mappings could carry two
				// different data sequences: exactly the corruption the
				// checker exists to catch.
				return fmt.Errorf("mptcp %s sf%d: mapping %d offset %d overlaps previous end %d",
					c.Name, sf.ID, i, m.off, prevEnd)
			}
			prevEnd = m.off + m.length
			if !sf.dataUnordered && m.dataEnd() < prevDataEnd {
				// pruneMappings would pop a prefix and miss this one.
				return fmt.Errorf("mptcp %s sf%d: mapping %d data end %d below previous %d with the queue marked ordered",
					c.Name, sf.ID, i, m.dataEnd(), prevDataEnd)
			}
			prevDataEnd = m.dataEnd()
			if m.dataSeq < initialDataSeq {
				return fmt.Errorf("mptcp %s sf%d: mapping %d dataSeq %d below initial", c.Name, sf.ID, i, m.dataSeq)
			}
			if end := m.dataSeq + uint64(m.length); end > c.sndNxtData {
				return fmt.Errorf("mptcp %s sf%d: mapping %d maps unassigned data (end %d > %d)",
					c.Name, sf.ID, i, end, c.sndNxtData)
			}
		}
	}

	if err := c.reorder.CheckInvariants(); err != nil {
		return fmt.Errorf("mptcp %s: %w", c.Name, err)
	}
	if occ := c.reorder.BufferedBytes(); occ > int64(c.cfg.TCP.RcvBuf) {
		return fmt.Errorf("mptcp %s: reorder buffer holds %d bytes, advertised buffer is %v", c.Name, occ, c.cfg.TCP.RcvBuf)
	}
	if c.peerFinSeq > 0 && c.reorder.RcvNxt() > c.peerFinSeq {
		return fmt.Errorf("mptcp %s: delivered past peer DATA_FIN (%d > %d)", c.Name, c.reorder.RcvNxt(), c.peerFinSeq)
	}
	return nil
}
