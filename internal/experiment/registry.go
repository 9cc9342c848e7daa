package experiment

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// Campaign is one registry entry: everything a caller that receives a
// campaign name at runtime needs to run and report it.
type Campaign struct {
	// Name is the paper's figure identifier (and the Matrix ID);
	// Aliases are the companion figure/table numbers the same campaign
	// produces.
	Name    string
	Aliases []string
	Make    func(CampaignOpts) *Matrix
	// Text renders the paper-style tables of a finished matrix.
	Text func(io.Writer, *Matrix)
	// Distributions marks campaigns whose JSON report carries the CCDF
	// series next to the cells (Figures 12/13).
	Distributions bool
	// InAll marks the campaigns paperbench's "-experiment all" runs.
	InAll bool
}

// campaigns is the one ordered table of every measurement campaign
// the repo can run: the mptcpd service layer and paperbench's
// -experiment flag both resolve names through it, and paperbench runs
// and renders in its order.
var campaigns = []Campaign{
	{Name: "fig2", Aliases: []string{"fig3", "table2"}, Make: Baseline, Text: writeTimesSharePaths, InAll: true},
	{Name: "fig4", Aliases: []string{"fig5", "table3"}, Make: SmallFlows, Text: writeTimesSharePaths, InAll: true},
	{Name: "fig6", Aliases: []string{"fig7", "table4"}, Make: CoffeeShop, Text: writeTimesSharePaths, InAll: true},
	{Name: "fig8", Make: SimultaneousSYN, Text: WriteDownloadTimes, InAll: true},
	{Name: "fig9", Aliases: []string{"fig10", "table5"}, Make: LargeFlows, Text: writeTimesSharePaths, InAll: true},
	{Name: "fig11", Text: WriteDownloadTimes, InAll: true,
		Make: func(opts CampaignOpts) *Matrix { return Backlog(0, opts) }},
	{Name: "shootout", Aliases: []string{"sched"}, Make: SchedulerShootout, Text: writeTimesSharePaths, InAll: true},
	{Name: "fig12", Aliases: []string{"fig13", "table6"}, Make: LatencyDistribution, Distributions: true, InAll: true,
		Text: func(w io.Writer, m *Matrix) {
			WriteRTTCCDF(w, m)
			WriteOFOCCDF(w, m)
			WriteMPTCPLatencyTable(w, m)
		}},
	{Name: "mobility", Make: Mobility, Text: func(w io.Writer, m *Matrix) {
		WriteDownloadTimes(w, m)
		WriteCellShare(w, m)
	}},
}

func writeTimesSharePaths(w io.Writer, m *Matrix) {
	WriteDownloadTimes(w, m)
	WriteCellShare(w, m)
	WritePathCharacteristics(w, m)
}

// Campaigns lists the registry in its canonical order. The slice is
// shared; callers must not modify it.
func Campaigns() []Campaign { return campaigns }

// CampaignNames lists the canonical campaign names, sorted.
func CampaignNames() []string {
	names := make([]string, 0, len(campaigns))
	for _, c := range campaigns {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	return names
}

// ParseCampaign finds the campaign a name or alias refers to, so
// "table3" is the fig4/fig5 small-flows matrix.
func ParseCampaign(name string) (Campaign, error) {
	name = strings.ToLower(strings.TrimSpace(name))
	for _, c := range campaigns {
		if c.Name == name || slices.Contains(c.Aliases, name) {
			return c, nil
		}
	}
	return Campaign{}, fmt.Errorf("experiment: unknown campaign %q (have %s)",
		name, strings.Join(CampaignNames(), ", "))
}

// ParseCampaigns resolves a comma-separated list of names and aliases
// (paperbench's -experiment) into registry order, whatever order it was
// written in; "all" stands for the entries marked InAll.
func ParseCampaigns(list string) ([]Campaign, error) {
	sel := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		if name = strings.TrimSpace(name); name != "all" {
			c, err := ParseCampaign(name)
			if err != nil {
				return nil, err
			}
			name = c.Name
		}
		sel[name] = true
	}
	var out []Campaign
	for _, c := range campaigns {
		if sel[c.Name] || sel["all"] && c.InAll {
			out = append(out, c)
		}
	}
	return out, nil
}

// NewCampaign runs the named campaign.
func NewCampaign(name string, opts CampaignOpts) (*Matrix, error) {
	c, err := ParseCampaign(name)
	if err != nil {
		return nil, err
	}
	return c.Make(opts), nil
}
