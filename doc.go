// Package mptcplab is a from-scratch Go reproduction of "A
// Measurement-based Study of MultiPath TCP Performance over Wireless
// Networks" (Chen, Lim, Gibbens, Nahum, Khalili, Towsley — IMC 2013).
//
// The paper measured Linux MPTCP v0.86 over real WiFi and cellular
// carriers; this repository rebuilds the whole stack on a
// deterministic packet-level simulator — TCP New Reno with SACK, MPTCP
// with its coupled/olia/reno congestion controllers and lowest-RTT
// scheduler, calibrated WiFi/LTE/3G path models with bufferbloat and
// link-layer ARQ, an HTTP-like workload layer, and a pcap/tcptrace
// analysis pipeline — and regenerates every table and figure of the
// paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for the experiments.
// SCORECARD.csv gives each paper claim's band and verdict; paperbench
// regenerates an experiment, and the scorecard:
//
//	go run ./cmd/paperbench -experiment fig2
//	make scorecard
//
// Executables:
//
//	cmd/mptcpsim   - run one measured download (optionally with pcap capture, or
//	                 under a fault schedule with a resilience report), or rerun
//	                 the one run a fleet row's or fuzz case's replay token names
//	cmd/paperbench - regenerate all tables and figures, and the scorecard
//	cmd/tracestat  - analyze captures, tcptrace-style
//	cmd/mptcpload  - fleet load sweeps, each row with a replay token
//	cmd/mptcpfuzz  - seeded adversarial scenario fuzzer with the invariant checker
//	cmd/mptcpd     - campaign daemon: HTTP/JSON submission, result cache, replay
package mptcplab
