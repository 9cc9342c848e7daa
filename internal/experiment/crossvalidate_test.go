package experiment

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/pcap"
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

	// The trace's per-path RTT samples must be the stack's exactly: the
	// same multiset (the stack samples cumulative ACK coverage; the
	// trace analyzer does the same arithmetic from the capture).
	sameMultiset := func(name string, traceMs, stackMs []float64) {
		traceMs = append([]float64(nil), traceMs...)
		stackMs = append([]float64(nil), stackMs...)
		sort.Float64s(traceMs)
		sort.Float64s(stackMs)
		if len(stackMs) == 0 || !reflect.DeepEqual(traceMs, stackMs) {
			t.Errorf("%s samples: trace has %d, stack %d; the multisets differ", name, len(traceMs), len(stackMs))
		}
	}
	sameMultiset("wifi RTT", traceWiFiRTT, res.WiFiRTTms)
	sameMultiset("cell RTT", traceCellRTT, res.CellRTTms)

	// OFO reconstruction from the client-side trace must reproduce the
	// reorder buffer's measurements exactly: the same multiset of
	// samples, one per data packet of the response.
	conns := clientCap.Analyze().Connections()
	if len(conns) != 1 {
		t.Fatalf("client trace holds %d MPTCP connections, want 1", len(conns))
	}
	sameMultiset("OFO", conns[0].OFOms, res.OFOms)
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
