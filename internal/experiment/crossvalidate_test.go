package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/pcap"
	"mptcplab/internal/stats"
	"mptcplab/internal/trace"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// TestTraceCrossValidatesStackMetrics runs one MPTCP download while
// capturing tcpdump-style traces at both hosts, then checks that the
// trace analyzer's independently recomputed metrics agree with the
// protocol stack's own counters — validating the paper's measurement
// pipeline end to end.
func TestTraceCrossValidatesStackMetrics(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: true, WarmRadio: true, Seed: 77,
	})
	serverCap := &trace.MemoryCapture{}
	clientCap := &trace.MemoryCapture{}
	tb.Server.AddTap(serverCap.Tap())
	tb.Client.AddTap(clientCap.Tap())

	res := tb.Run(RunConfig{Transport: MP2, Size: 4 * units.MB})
	if !res.Completed {
		t.Fatal("download did not complete")
	}

	sa := serverCap.Analyze()

	// Per-path sender stats from the server-side trace must match the
	// endpoints' own counters.
	var traceWiFiData, traceWiFiRetrans, traceCellData, traceCellRetrans uint64
	var traceWiFiRTT, traceCellRTT []float64
	for _, fs := range sa.Flows() {
		if fs.Flow.Src.Port != world.ServerAddr.Port {
			continue // client->server direction
		}
		if fs.Flow.Dst.IP == tb.CellAddr.IP {
			traceCellData += fs.DataPkts
			traceCellRetrans += fs.RetransPkts
			traceCellRTT = append(traceCellRTT, fs.RTTms...)
		} else {
			traceWiFiData += fs.DataPkts
			traceWiFiRetrans += fs.RetransPkts
			traceWiFiRTT = append(traceWiFiRTT, fs.RTTms...)
		}
	}
	if traceWiFiData != res.WiFiDataPkts {
		t.Errorf("trace wifi data pkts %d, stack %d", traceWiFiData, res.WiFiDataPkts)
	}
	if traceCellData != res.CellDataPkts {
		t.Errorf("trace cell data pkts %d, stack %d", traceCellData, res.CellDataPkts)
	}
	if traceWiFiRetrans != res.WiFiRetransPkts {
		t.Errorf("trace wifi retrans %d, stack %d", traceWiFiRetrans, res.WiFiRetransPkts)
	}
	if traceCellRetrans != res.CellRetransPkts {
		t.Errorf("trace cell retrans %d, stack %d", traceCellRetrans, res.CellRetransPkts)
	}

	// RTT sample sets must agree closely (the stack samples cumulative
	// ACK coverage; the trace analyzer does the same arithmetic).
	cmpRTT := func(name string, traceRTT []float64, stackRTT []float64) {
		if len(traceRTT) == 0 || len(stackRTT) == 0 {
			t.Errorf("%s: empty RTT sample sets (trace %d, stack %d)", name, len(traceRTT), len(stackRTT))
			return
		}
		ts := stats.New()
		ts.AddAll(traceRTT)
		ss := stats.New()
		ss.AddAll(stackRTT)
		if d := ts.Mean() - ss.Mean(); d > 2 || d < -2 {
			t.Errorf("%s: trace mean RTT %.2fms vs stack %.2fms", name, ts.Mean(), ss.Mean())
		}
	}
	cmpRTT("wifi", traceWiFiRTT, res.WiFiRTTms)
	cmpRTT("cell", traceCellRTT, res.CellRTTms)

	// OFO reconstruction from the client-side trace should agree with
	// the reorder buffer's measurements in both count and magnitude.
	ca := clientCap.Analyze()
	traceOFO := stats.New()
	traceOFO.AddAll(ca.OFOms())
	stackOFO := stats.New()
	stackOFO.AddAll(res.OFOms)
	if traceOFO.N() == 0 || stackOFO.N() == 0 {
		t.Fatalf("empty OFO sets: trace %d stack %d", traceOFO.N(), stackOFO.N())
	}
	// Counts can differ slightly (subflow-level duplicates are
	// deduplicated differently), but the in-order fraction and the
	// delay distribution must line up.
	tIn := 1 - traceOFO.FractionAbove(0)
	sIn := 1 - stackOFO.FractionAbove(0)
	if d := tIn - sIn; d > 0.05 || d < -0.05 {
		t.Errorf("in-order fraction: trace %.3f vs stack %.3f", tIn, sIn)
	}
	if d := traceOFO.Quantile(0.9) - stackOFO.Quantile(0.9); d > 10 || d < -10 {
		t.Errorf("OFO p90: trace %.1fms vs stack %.1fms", traceOFO.Quantile(0.9), stackOFO.Quantile(0.9))
	}
}

// TestMemoryAndPcapCapturesAgree taps one 4-path download both ways at
// each host — MemoryCapture keeps the tap's segments as they are,
// PcapTap encodes them to a file that AnalyzePcap decodes — and checks
// that the two analyses are the same in every flow statistic and every
// reconstructed connection: nothing the analyzer reads is lost or
// changed by the trip through wire bytes.
func TestMemoryAndPcapCapturesAgree(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.Verizon(),
		SampleProfiles: true, WarmRadio: true, Seed: 78, ServerSecondIface: true,
	})
	type vantage struct {
		name string
		mem  trace.MemoryCapture
		file bytes.Buffer
	}
	vantages := []*vantage{{name: "server"}, {name: "client"}}
	for i, host := range []*netem.Host{tb.Server, tb.Client} {
		w, err := pcap.NewWriter(&vantages[i].file)
		if err != nil {
			t.Fatal(err)
		}
		host.AddTap(vantages[i].mem.Tap())
		host.AddTap(trace.PcapTap(w))
	}
	if res := tb.Run(RunConfig{Transport: MP4, Size: 2 * units.MB}); !res.Completed {
		t.Fatal("download did not complete")
	}
	for _, v := range vantages {
		fromMem := v.mem.Analyze()
		fromFile, err := trace.AnalyzePcap(&v.file)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if len(fromMem.Flows()) != 8 || len(fromMem.Connections()) != 1 {
			t.Errorf("%s: %d flows in %d connections, want 4 subflows both ways in one",
				v.name, len(fromMem.Flows()), len(fromMem.Connections()))
		}
		if !reflect.DeepEqual(fromMem.Flows(), fromFile.Flows()) {
			t.Errorf("%s: flow statistics differ between memory and pcap capture", v.name)
		}
		if !reflect.DeepEqual(fromMem.Connections(), fromFile.Connections()) {
			t.Errorf("%s: reconstructed connections differ between memory and pcap capture", v.name)
		}
	}
}
