// Quickstart: download one 4 MB object three ways — single-path TCP
// over WiFi, single-path TCP over AT&T LTE, and 2-path MPTCP using
// both — and compare download times and path usage. This is the
// paper's core measurement in miniature.
package main

import (
	"fmt"
	"io"
	"os"

	"mptcplab/internal/experiment"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/units"
)

func main() { run(os.Stdout) }

func run(w io.Writer) {
	fmt.Fprintln(w, "mptcplab quickstart: 4MB download, home WiFi + AT&T LTE")
	fmt.Fprintln(w)

	configs := []experiment.RunConfig{
		{Transport: experiment.SPWiFi, Size: 4 * units.MB},
		{Transport: experiment.SPCell, Size: 4 * units.MB},
		{Transport: experiment.MP2, Controller: "coupled", Size: 4 * units.MB},
	}
	for _, rc := range configs {
		// A fresh testbed per measurement, like the paper's fresh
		// connections: no cached TCP metrics carry over.
		tb := experiment.NewTestbed(experiment.TestbedConfig{
			WiFi:           pathmodel.ComcastHome(),
			Cell:           pathmodel.ATT(),
			SampleProfiles: false, // fixed conditions for a clean comparison
			WarmRadio:      true,
			Seed:           42,
		})
		res := tb.Run(rc)
		if !res.Completed {
			fmt.Fprintf(w, "%-16s did not complete\n", rc.Transport)
			continue
		}
		fmt.Fprintf(w, "%-16s %6.2f s", rc.Transport, res.DownloadTime.Seconds())
		if rc.Transport == experiment.MP2 {
			fmt.Fprintf(w, "   (%.0f%% of bytes over cellular, %d subflows)",
				res.CellShare()*100, res.Subflows)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "MPTCP tracks the best available path and usually beats it by")
	fmt.Fprintln(w, "pooling both — the paper's headline result (§4).")
}
