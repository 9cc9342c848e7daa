package experiment

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"mptcplab/internal/stats"
)

// CellExport is the machine-readable summary of one campaign cell,
// used by paperbench's -format csv/json outputs so results can be
// plotted outside Go.
type CellExport struct {
	Experiment string  `json:"experiment"`
	Config     string  `json:"config"`
	SizeBytes  int64   `json:"size_bytes"`
	N          int     `json:"n"`
	Failures   int     `json:"failures"`
	TimeMin    float64 `json:"time_s_min"`
	TimeQ1     float64 `json:"time_s_q1"`
	TimeMedian float64 `json:"time_s_median"`
	TimeQ3     float64 `json:"time_s_q3"`
	TimeMax    float64 `json:"time_s_max"`
	TimeMean   float64 `json:"time_s_mean"`
	TimeStderr float64 `json:"time_s_stderr"`

	CellShareMean float64 `json:"cell_share_mean"`

	WiFiLossPctMean float64 `json:"wifi_loss_pct_mean"`
	CellLossPctMean float64 `json:"cell_loss_pct_mean"`

	WiFiRTTMean float64 `json:"wifi_rtt_ms_mean"`
	WiFiRTTP90  float64 `json:"wifi_rtt_ms_p90"`
	CellRTTMean float64 `json:"cell_rtt_ms_mean"`
	CellRTTP90  float64 `json:"cell_rtt_ms_p90"`

	OFOMean     float64 `json:"ofo_ms_mean"`
	OFOP90      float64 `json:"ofo_ms_p90"`
	OFOInOrder  float64 `json:"ofo_inorder_frac"`
	OFOAbove150 float64 `json:"ofo_gt150ms_frac"`
}

// Export flattens a matrix into one record per cell. It is idempotent:
// a mean sums in storage order and a quantile sorts in place, so every
// sample's order statistics are taken before its mean (calls in a
// composite literal run left to right), and every export sums sorted
// values.
func (m *Matrix) Export() []CellExport {
	var out []CellExport
	for _, row := range m.Rows {
		for i, size := range m.Sizes {
			c := row.Cells[i]
			b := c.Times.BoxSummary()
			e := CellExport{
				Experiment: m.ID,
				Config:     row.Label,
				SizeBytes:  int64(size),
				N:          c.Times.N(),
				Failures:   c.Failures,
				TimeMin:    b.Min, TimeQ1: b.Q1, TimeMedian: b.Median,
				TimeQ3: b.Q3, TimeMax: b.Max,
				TimeMean: c.Times.Mean(), TimeStderr: c.Times.Stderr(),
				CellShareMean:   c.Share.Mean(),
				WiFiLossPctMean: c.WiFiLoss.Mean(),
				CellLossPctMean: c.CellLoss.Mean(),
				WiFiRTTP90:      c.WiFiRTT.Quantile(0.9),
				WiFiRTTMean:     c.WiFiRTT.Mean(),
				CellRTTP90:      c.CellRTT.Quantile(0.9),
				CellRTTMean:     c.CellRTT.Mean(),
			}
			if c.OFO.N() > 0 {
				e.OFOP90 = c.OFO.Quantile(0.9)
				e.OFOMean = c.OFO.Mean()
				e.OFOInOrder = 1 - c.OFO.FractionAbove(0)
				e.OFOAbove150 = c.OFO.FractionAbove(150)
			}
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON emits the matrix as a JSON array of cell records.
func WriteJSON(w io.Writer, ms ...*Matrix) error {
	var all []CellExport
	for _, m := range ms {
		all = append(all, m.Export()...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}

// WriteReportJSON emits the full JSON report paperbench -format json
// and mptcpd's export.json share byte for byte: every matrix's cell
// records, plus the CCDF series of the campaigns the registry marks
// Distributions.
func WriteReportJSON(w io.Writer, ms ...*Matrix) error {
	var out struct {
		Cells         []CellExport         `json:"cells"`
		Distributions []DistributionExport `json:"distributions,omitempty"`
	}
	for _, m := range ms {
		out.Cells = append(out.Cells, m.Export()...)
		if c, err := ParseCampaign(m.ID); err == nil && c.Distributions {
			out.Distributions = append(out.Distributions, m.ExportDistributions()...)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// csvHeader lists the exported columns, in order.
var csvHeader = []string{
	"experiment", "config", "size_bytes", "n", "failures",
	"time_s_min", "time_s_q1", "time_s_median", "time_s_q3", "time_s_max",
	"time_s_mean", "time_s_stderr",
	"cell_share_mean", "wifi_loss_pct_mean", "cell_loss_pct_mean",
	"wifi_rtt_ms_mean", "wifi_rtt_ms_p90", "cell_rtt_ms_mean", "cell_rtt_ms_p90",
	"ofo_ms_mean", "ofo_ms_p90", "ofo_inorder_frac", "ofo_gt150ms_frac",
}

// WriteCSV emits the matrix as CSV with a header row.
func WriteCSV(w io.Writer, ms ...*Matrix) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, m := range ms {
		for _, e := range m.Export() {
			rec := []string{
				e.Experiment, e.Config, strconv.FormatInt(e.SizeBytes, 10),
				strconv.Itoa(e.N), strconv.Itoa(e.Failures),
				f(e.TimeMin), f(e.TimeQ1), f(e.TimeMedian), f(e.TimeQ3), f(e.TimeMax),
				f(e.TimeMean), f(e.TimeStderr),
				f(e.CellShareMean), f(e.WiFiLossPctMean), f(e.CellLossPctMean),
				f(e.WiFiRTTMean), f(e.WiFiRTTP90), f(e.CellRTTMean), f(e.CellRTTP90),
				f(e.OFOMean), f(e.OFOP90), f(e.OFOInOrder), f(e.OFOAbove150),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// DistributionExport carries raw per-packet samples for CCDF plotting
// (Figures 12/13).
type DistributionExport struct {
	Experiment string    `json:"experiment"`
	Config     string    `json:"config"`
	SizeBytes  int64     `json:"size_bytes"`
	Metric     string    `json:"metric"` // "rtt_cell_ms" | "rtt_wifi_ms" | "ofo_ms"
	Thresholds []float64 `json:"thresholds"`
	CCDF       []float64 `json:"ccdf"`
	N          int       `json:"n"`
}

// ExportDistributions renders CCDF series for every cell, at
// log-spaced thresholds, for external plotting of Figures 12/13.
func (m *Matrix) ExportDistributions() []DistributionExport {
	rttT := stats.LogSpace(10, 4000, 24)
	ofoT := append([]float64{0}, stats.LogSpace(1, 2000, 23)...)
	var out []DistributionExport
	add := func(row MatrixRow, size int64, metric string, s *stats.Sample, ts []float64) {
		if s.N() == 0 {
			return
		}
		out = append(out, DistributionExport{
			Experiment: m.ID, Config: row.Label, SizeBytes: size,
			Metric: metric, Thresholds: ts, CCDF: s.CCDF(ts), N: s.N(),
		})
	}
	for _, row := range m.Rows {
		for i, size := range m.Sizes {
			c := row.Cells[i]
			add(row, int64(size), "rtt_cell_ms", c.CellRTT, rttT)
			add(row, int64(size), "rtt_wifi_ms", c.WiFiRTT, rttT)
			add(row, int64(size), "ofo_ms", c.OFO, ofoT)
		}
	}
	return out
}
