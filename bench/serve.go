package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/load"
)

// serveSpec is one campaign submitted to the daemon, and the direct
// in-process computation of the same campaign.
type serveSpec struct {
	Label string
	Body  string // POST /v1/campaigns request body
	// direct runs the campaign in process on one worker and returns
	// export.csv, export.json and the simulator events it took.
	direct func() (csv, js []byte, events uint64, err error)
}

func experimentSpec(name string, reps int, seed int64) serveSpec {
	return serveSpec{
		Label: name,
		Body:  fmt.Sprintf(`{"experiment":%q,"reps":%d,"seed":%d,"workers":1}`, name, reps, seed),
		direct: func() ([]byte, []byte, uint64, error) {
			m, err := campaignSpec{Name: name, Reps: reps, Seed: seed}.run(1, nil, 0)
			if err != nil {
				return nil, nil, 0, err
			}
			var csv, js bytes.Buffer
			if err := experiment.WriteCSV(&csv, m); err != nil {
				return nil, nil, 0, err
			}
			// export.json has paperbench -format json's shape.
			out := struct {
				Cells         []experiment.CellExport         `json:"cells"`
				Distributions []experiment.DistributionExport `json:"distributions,omitempty"`
			}{Cells: m.Export()}
			if name == "fig12" {
				out.Distributions = m.ExportDistributions()
			}
			enc := json.NewEncoder(&js)
			enc.SetIndent("", "  ")
			if err := enc.Encode(&out); err != nil {
				return nil, nil, 0, err
			}
			return csv.Bytes(), js.Bytes(), m.TotalEvents, nil
		},
	}
}

func loadSpec(base string, rates []float64, reps int, seed int64) serveSpec {
	body, _ := json.Marshal(map[string]any{
		"kind": "load", "base": base, "rates": rates, "reps": reps, "seed": seed, "workers": 1,
	})
	return serveSpec{
		Label: "load",
		Body:  string(body),
		direct: func() ([]byte, []byte, uint64, error) {
			cfg, err := load.ParseReplay(base)
			if err != nil {
				return nil, nil, 0, err
			}
			sw := load.RunSweep(load.SweepOpts{Base: cfg, Rates: rates, Reps: reps, Seed: seed, Workers: 1})
			var csv, js bytes.Buffer
			if err := sw.WriteCSV(&csv, cfg); err != nil {
				return nil, nil, 0, err
			}
			if err := sw.WriteJSON(&js, cfg); err != nil {
				return nil, nil, 0, err
			}
			return csv.Bytes(), js.Bytes(), sw.TotalEvents, nil
		},
	}
}

// serveJob drives the real mptcpd binary over loopback: a cold phase
// (never-seen seeds: Put), a warm phase (resubmissions: GetRef and
// decode) and a reopen phase (restart on the same store: segment
// load). One client, one connection, closed loop — the daemon runs one
// campaign at a time and callers wait for replies.
type serveJob struct {
	specs []serveSpec
	// warmRounds is how many times the warm phase resubmits each spec.
	warmRounds int
	// reopen indexes the spec resubmitted after the restart.
	reopen int
	env    jobEnv
	hc     *http.Client
	passes int
}

func newServeJob(seed int64, env jobEnv) (*serveJob, error) {
	if env.mptcpd == "" {
		return nil, fmt.Errorf("serve needs the mptcpd binary (none was built)")
	}
	s := func(i int) int64 { return deriveSeed(seed, "serve", i) }
	j := &serveJob{env: env, hc: newHTTPClient(), warmRounds: 3, reopen: 1}
	if env.small {
		j.warmRounds = 1
		j.specs = []serveSpec{
			experimentSpec("fig8", 1, s(0)),
			loadSpec("clients=8,flows=12,dur=5s", []float64{3}, 1, s(3)),
		}
		return j, nil
	}
	j.specs = []serveSpec{
		// Many small (~12 KB) results: per-row overhead.
		experimentSpec("fig4", 2, s(0)),
		// Few large (~170 KB) results with per-packet samples: codec
		// and store throughput; also the distributions export.
		experimentSpec("fig12", 1, s(1)),
		// A tiny campaign: submit, journal fsync and HTTP dominate.
		experimentSpec("fig8", 2, s(2)),
		// The other campaign kind: rows cached at export level.
		loadSpec("clients=60,dur=15s,drain=15s,transport=wifi=0.3+cell=0.2+mptcp=0.5",
			[]float64{3, 10}, 2, s(3)),
	}
	return j, nil
}

func (j *serveJob) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "warm_rounds=%d reopen=%s\n", j.warmRounds, j.specs[j.reopen].Label)
	for _, s := range j.specs {
		fmt.Fprintln(&b, s.Body)
	}
	return b.String()
}

func (j *serveJob) close() { j.hc.CloseIdleConnections() }

// directAll runs every spec directly in process — what the daemon's
// cold phase computes, minus store and HTTP — and returns the
// simulator events that took.
func (j *serveJob) directAll() (uint64, error) {
	var events uint64
	for _, spec := range j.specs {
		_, _, n, err := spec.direct()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", spec.Label, err)
		}
		events += n
	}
	return events, nil
}

// servePhases splits one serve pass: seconds from submit to last export
// byte summed over the phase's submissions, rows asked for, and the
// store's size on disk after the warm phase.
type servePhases struct {
	coldS, warmS, reopenS        float64
	coldRows, warmRows, warmHits int
	storeDiskMB                  float64
}

// caller issues requests to one daemon and counts them.
type caller struct {
	hc   *http.Client
	base string
	out  *passOut
}

// do issues one request and returns the body. Any transport error or
// non-2xx answer is one failed operation.
func (c *caller) do(method, path, body string) []byte {
	c.out.attempted++
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		c.out.fail("%s %s: %v", method, path, err)
		return nil
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.out.fail("%s %s: %v", method, path, err)
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode/100 != 2 {
		c.out.fail("%s %s: status %d, %v: %s", method, path, resp.StatusCode, err, firstLine(b))
		return nil
	}
	return b
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(string(b), "\n")
	if len(line) > 200 {
		line = line[:200]
	}
	return line
}

// status is the part of the daemon's campaign status the driver reads.
type status struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Total       int    `json:"total"`
	CacheHits   int    `json:"cache_hits"`
	CacheMisses int    `json:"cache_misses"`
	Error       string `json:"error"`
}

// submission is the outcome of one submit → export exchange.
type submission struct {
	csv, js []byte
	st      status
	// seconds from the POST to the last export byte.
	seconds float64
}

// submit posts a spec, waits on the /rows follower (the daemon closes
// it when the campaign reaches a terminal state, so there is no
// polling quantum), checks the final status and fetches both exports.
// Under a tracer it also observes queued→running by polling the status
// and re-reads the finished row feed, two things a timed pass skips.
func (c *caller) submit(spec serveSpec, tr *tracer, parent int, phase string) submission {
	var sub submission
	t0 := time.Now()
	root := tr.begin(parent, "mptcpd."+phase+":"+spec.Label)
	defer tr.end(root)

	sp := tr.begin(root, "mptcpd.submit")
	body := c.do("POST", "/v1/campaigns", spec.Body)
	tr.end(sp)
	if body == nil || json.Unmarshal(body, &sub.st) != nil || sub.st.ID == "" {
		c.out.fail("submit %s: unreadable answer %s", spec.Label, firstLine(body))
		return sub
	}
	path := "/v1/campaigns/" + sub.st.ID

	if tr != nil {
		sp = tr.begin(root, "mptcpd.queued")
		for sub.st.State == "queued" {
			if b := c.do("GET", path, ""); b == nil || json.Unmarshal(b, &sub.st) != nil {
				break
			}
		}
		tr.end(sp)
	}
	sp = tr.begin(root, "mptcpd.running")
	c.do("GET", path+"/rows", "")
	tr.end(sp)

	if b := c.do("GET", path, ""); b == nil || json.Unmarshal(b, &sub.st) != nil {
		return sub
	}
	c.out.attempted++
	if sub.st.State != "done" {
		c.out.fail("campaign %s (%s) ended %q: %s", sub.st.ID, spec.Label, sub.st.State, sub.st.Error)
		return sub
	}

	sp = tr.begin(root, "mptcpd.export_fetch")
	sub.csv = c.do("GET", path+"/export.csv", "")
	sub.js = c.do("GET", path+"/export.json", "")
	tr.end(sp)
	sub.seconds = time.Since(t0).Seconds()

	if tr != nil {
		sp = tr.begin(root, "mptcpd.rows_stream")
		c.do("GET", path+"/rows", "")
		tr.end(sp)
	}
	return sub
}

// sameExports counts one comparison per artifact of a resubmission
// against the cold submission of the same spec.
func (c *caller) sameExports(what string, got, want submission) {
	for _, pair := range [][2][]byte{{got.csv, want.csv}, {got.js, want.js}} {
		c.out.attempted++
		if pair[0] == nil || !bytes.Equal(pair[0], pair[1]) {
			c.out.fail("%s export differs from the cold one", what)
		}
	}
}

// allHits counts every row of a resubmission as an operation and every
// row the daemon recomputed as a failed one: warm means 100 % hits.
func (c *caller) allHits(what string, st status) {
	c.out.attempted += st.Total
	if st.CacheMisses > 0 || st.CacheHits != st.Total {
		c.out.failN(max(st.Total-st.CacheHits, 1), "%s: %d hits, %d misses of %d rows",
			what, st.CacheHits, st.CacheMisses, st.Total)
	}
}

func (j *serveJob) pass(tr *tracer) (out passOut, err error) {
	j.passes++
	store := filepath.Join(j.env.tmp, fmt.Sprintf("store-%d-%d", os.Getpid(), j.passes))
	if err := os.MkdirAll(store, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(store)
	ph := &servePhases{}
	out.phases, out.remote = ph, &remoteUsage{}
	root := tr.begin(0, "pass")
	defer tr.end(root)

	var d *daemon
	stop := func() {
		sp := tr.begin(root, "mptcpd.sigterm_exit")
		u, _ := d.stop()
		tr.end(sp)
		out.remote.cpuS += u.cpuS
		out.remote.rssKB = max(out.remote.rssKB, u.rssKB)
		j.hc.CloseIdleConnections()
		d = nil
	}
	boot := func() error {
		sp := tr.begin(root, "mptcpd.boot")
		defer tr.end(sp)
		out.attempted++
		var err error
		if d, err = startDaemon(j.env.mptcpd, store, j.hc); err != nil {
			out.fail("%v", err)
		}
		return err
	}
	defer func() {
		if d != nil {
			stop()
		}
	}()

	if err := boot(); err != nil {
		return out, err
	}
	c := &caller{hc: j.hc, base: d.url, out: &out}

	// Cold: every spec carries a seed this store has never seen.
	cold := make([]submission, len(j.specs))
	var exports [][]byte
	for i, spec := range j.specs {
		cold[i] = c.submit(spec, tr, root, "cold")
		ph.coldS += cold[i].seconds
		ph.coldRows += cold[i].st.Total
		exports = append(exports, cold[i].csv, cold[i].js)
	}
	out.setExports(exports...)

	// Warm: the same specs again; every row must come from the store.
	for round := 0; round < j.warmRounds; round++ {
		for i, spec := range j.specs {
			sub := c.submit(spec, tr, root, "warm")
			ph.warmS += sub.seconds
			ph.warmRows += sub.st.Total
			ph.warmHits += sub.st.CacheHits
			c.allHits("warm "+spec.Label, sub.st)
			c.sameExports("warm "+spec.Label, sub, cold[i])
		}
	}
	if n, err := dirBytes(filepath.Join(store, "results")); err != nil {
		out.attempted++
		out.fail("measure the store: %v", err)
	} else {
		ph.storeDiskMB = float64(n) / 1e6
	}

	// Reopen: restart on the same directory and ask again. Timed from
	// the exec to the export, so work moved from open into the first
	// Get still shows.
	stop()
	t0 := time.Now()
	if err := boot(); err != nil {
		return out, err
	}
	c.base = d.url
	sub := c.submit(j.specs[j.reopen], tr, root, "reopen")
	ph.reopenS = time.Since(t0).Seconds()
	c.allHits("reopened "+j.specs[j.reopen].Label, sub.st)
	c.sameExports("reopened "+j.specs[j.reopen].Label, sub, cold[j.reopen])
	return out, nil
}

// verify computes every spec directly in process and requires the
// daemon's cold exports (which the warm and reopened ones were already
// held equal to) to be the same bytes.
func (j *serveJob) verify(first passOut) []checkResult {
	res := checkResult{Name: "daemon exports identical to the direct in-process run", OK: true}
	for i, spec := range j.specs {
		csv, js, _, err := spec.direct()
		switch {
		case err != nil:
			res.OK, res.Detail = false, fmt.Sprintf("%s: %v", spec.Label, err)
		case len(first.exports) != 2*len(j.specs):
			res.OK, res.Detail = false, "the first pass fetched no exports"
		case !bytes.Equal(csv, first.exports[2*i]) || !bytes.Equal(js, first.exports[2*i+1]):
			res.OK, res.Detail = false, spec.Label+": daemon and direct exports differ"
		}
		if !res.OK {
			break
		}
	}
	return []checkResult{res}
}
