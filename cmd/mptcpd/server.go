package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/load"
	"mptcplab/internal/sweep"
)

const (
	kindExperiment = "experiment"
	kindLoad       = "load"

	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateCancelled = "cancelled"
	stateFailed    = "failed"
)

// campaignSpec is the POST /v1/campaigns request body. Everything in
// it is configuration (part of the result), except Workers, which is
// execution policy: exports are byte-identical for any worker count.
type campaignSpec struct {
	Kind string `json:"kind"` // "experiment" (default) | "load"
	Seed int64  `json:"seed"`
	Reps int    `json:"reps,omitempty"`
	// Workers sizes the run pool (0 = all CPUs, 1 = serial).
	Workers int `json:"workers,omitempty"`

	// Experiment campaigns: a registry name or alias (fig2, fig4,
	// fig6, fig8, fig9, fig11, fig12, shootout, mobility, table3, ...).
	Experiment string `json:"experiment,omitempty"`
	SelfCheck  bool   `json:"selfcheck,omitempty"`

	// Load campaigns: a base config as a load replay token
	// ("clients=40,rate=3,dur=10s,..."; empty = package defaults)
	// plus the sweep axes.
	Base    string    `json:"base,omitempty"`
	Rates   []float64 `json:"rates,omitempty"`
	Clients []int     `json:"clients,omitempty"`
	Scheds  []string  `json:"scheds,omitempty"`
}

// experimentRow is the NDJSON progress record for one campaign run.
type experimentRow struct {
	experiment.CampaignJob
	Completed bool    `json:"completed"`
	DownloadS float64 `json:"download_s"`
	CellShare float64 `json:"cell_share"`
	Subflows  int     `json:"subflows"`
	Fail      string  `json:"fail,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
}

type campaignState struct {
	id      string
	spec    campaignSpec
	name    string // canonical experiment name ("" for load campaigns)
	run     func(*campaignState) error
	resumed bool // recovered from the journal after a restart

	ctx      context.Context
	cancel   context.CancelFunc
	finished chan struct{}
	// journaled, when non-nil, gates execution: the run loop holds the
	// campaign until its journal record is durably on disk, so a crash
	// can never have computed rows for a submission it has no record
	// of. Resumed campaigns (already journaled) leave it nil.
	journaled chan struct{}

	// onRow, when set, fires after each appended progress row — the
	// injected sync point the crash-recovery fault suite kills the
	// process at.
	onRow func()

	mu           sync.Mutex
	state        string
	done, total  int
	hits, misses int64
	failedRows   int               // rows whose run the watchdog killed or a panic ended
	rows         []json.RawMessage // completion-order progress feed
	keys         []string          // every recorded row's store key, in completion order
	errMsg       string
	exports      map[string][]byte // export.csv, export.json, resilience.*
}

func (c *campaignState) setState(st string) {
	c.mu.Lock()
	c.state = st
	c.mu.Unlock()
}

func (c *campaignState) fail(err error) {
	c.mu.Lock()
	c.state = stateFailed
	c.errMsg = err.Error()
	c.mu.Unlock()
}

func (c *campaignState) progress(done, total int) {
	c.mu.Lock()
	c.done, c.total = done, total
	c.mu.Unlock()
}

// record counts one run against the campaign's cache and failure
// accounting, notes its store key and appends its row to the progress
// feed.
func (c *campaignState) record(key string, hit, failed bool, row any) {
	b, err := json.Marshal(row)
	c.mu.Lock()
	c.keys = append(c.keys, key)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	if failed {
		c.failedRows++
	}
	if err == nil {
		c.rows = append(c.rows, b)
	}
	c.mu.Unlock()
	if err == nil && c.onRow != nil {
		c.onRow()
	}
}

// artifact is one named export and the writer that renders it.
type artifact struct {
	name  string
	write func(io.Writer) error
}

// export publishes the campaign's artifacts together: from the result
// store when an identical campaign rendered them before, otherwise
// rendered by their writers and stored, one record for the whole set,
// for the next one.
func (c *campaignState) export(st *sweep.Store, arts ...artifact) error {
	var err error
	set, _ := sweep.Memo(st, c.exportKey(), func(artifactSet) bool { return err == nil }, func() artifactSet {
		set := make(artifactSet, len(arts))
		for _, a := range arts {
			var b bytes.Buffer
			if err = a.write(&b); err != nil {
				return nil
			}
			set[a.name] = b.Bytes()
		}
		return set
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.exports = set
	c.mu.Unlock()
	return nil
}

// exportKey is the content address of the campaign's rendered
// artifacts: the spec without Workers (execution policy) and the
// sorted set of its rows' keys. Every row is a pure function of its
// key and every export a pure function of the spec and its rows, so
// two campaigns with the same export key render the same bytes. It is
// "" — don't cache — unless the campaign ran to the end with every row
// recorded, keyed and healthy: a cancelled campaign exports a partial
// matrix, and a failed row (or one the runner failed outside record)
// carries a wall-clock fact, not a function of any key.
func (c *campaignState) exportKey() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil || c.failedRows > 0 || len(c.keys) == 0 || len(c.keys) != c.total {
		return ""
	}
	keys := slices.Clone(c.keys)
	slices.Sort(keys)
	if keys[0] == "" { // a row the store could not address
		return ""
	}
	spec := c.spec
	spec.Workers = 0
	key, _ := sweep.Key(struct {
		Kind string       `json:"kind"`
		Spec campaignSpec `json:"spec"`
		Rows []string     `json:"rows"`
	}{Kind: "export", Spec: spec, Rows: slices.Compact(keys)}, spec.Seed)
	return key
}

// artifactSet is a campaign's rendered artifacts as the result store
// keeps them: a version byte, the artifact count and each (name, body)
// pair in name order, every length a uvarint. sweep.Memo reads it only
// through this form.
type artifactSet map[string][]byte

const artifactSetV1 = 0x01

var errArtifactSet = errors.New("mptcpd: malformed artifact set")

func (a *artifactSet) MarshalBinary() ([]byte, error) {
	names := make([]string, 0, len(*a))
	for name := range *a {
		names = append(names, name)
	}
	slices.Sort(names)
	b := binary.AppendUvarint([]byte{artifactSetV1}, uint64(len(names)))
	for _, name := range names {
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.AppendUvarint(b, uint64(len((*a)[name])))
		b = append(b, (*a)[name]...)
	}
	return b, nil
}

// UnmarshalBinary decodes a set from one copy of b (the store's bytes
// must not be retained); anything but one exact, complete encoding is
// an error, so a damaged record is a miss.
func (a *artifactSet) UnmarshalBinary(b []byte) error {
	if len(b) == 0 || b[0] != artifactSetV1 {
		return errArtifactSet
	}
	b = bytes.Clone(b[1:])
	next := func() ([]byte, bool) {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return nil, false
		}
		field := b[k : k+int(n) : k+int(n)]
		b = b[k+int(n):]
		return field, true
	}
	count, k := binary.Uvarint(b)
	if k <= 0 || count > uint64(len(b)) {
		return errArtifactSet
	}
	b = b[k:]
	set := make(artifactSet, count)
	prev := ""
	for i := uint64(0); i < count; i++ {
		name, ok := next()
		if !ok || (i > 0 && string(name) <= prev) {
			return errArtifactSet
		}
		body, ok := next()
		if !ok {
			return errArtifactSet
		}
		prev = string(name)
		set[prev] = body
	}
	if len(b) != 0 {
		return errArtifactSet
	}
	*a = set
	return nil
}

func (c *campaignState) terminal() bool {
	switch c.state {
	case stateDone, stateCancelled, stateFailed:
		return true
	}
	return false
}

// statusView is the GET /v1/campaigns/{id} body. State "done" says the
// runner returned; FailedRows says how many of Rows are failed runs.
type statusView struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Name        string `json:"name,omitempty"`
	State       string `json:"state"`
	Done        int    `json:"done"`
	Total       int    `json:"total"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Rows        int    `json:"rows"`
	FailedRows  int    `json:"failed_rows,omitempty"`
	Resumed     bool   `json:"resumed,omitempty"`
	Error       string `json:"error,omitempty"`
}

func (c *campaignState) status() statusView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return statusView{
		ID: c.id, Kind: c.spec.Kind, Name: c.name, State: c.state,
		Done: c.done, Total: c.total,
		CacheHits: c.hits, CacheMisses: c.misses,
		Rows: len(c.rows), FailedRows: c.failedRows, Resumed: c.resumed, Error: c.errMsg,
	}
}

// serverConfig assembles a daemon: which result backend, whether
// submissions are journaled for crash recovery, and the HTTP-edge
// limits. The zero value is the historical in-memory daemon.
type serverConfig struct {
	// addr is where the daemon listens; storeDir, when set, is the
	// -store directory openDurable fills the next four fields from.
	addr, storeDir string
	// store is the result store (nil = fresh memory-only); a
	// disk-backed one exposes its durability health on /healthz.
	store *sweep.Store
	// journal, when non-nil, records submissions before acceptance
	// and terminal states after; resume holds the incomplete entries
	// it recovered, re-enqueued at construction in submission order.
	journal *journal
	resume  []journalEntry
	// startID seeds the id sequence past every journaled id.
	startID int
	// queueDepth caps queued campaigns (0 = 128); beyond it submits
	// get 503 + Retry-After.
	queueDepth int
	// followMax bounds a /rows follower's lifetime (0 = 10m).
	followMax time.Duration
	// crashAfter > 0 arms the fault-injection sync point: once that
	// many progress rows have been appended across all campaigns,
	// crashFn runs (default: SIGKILL our own process).
	crashAfter int
	crashFn    func()
	// noRunLoop leaves the queue undrained — tests that need
	// campaigns to stay deterministically queued.
	noRunLoop bool
}

type server struct {
	ctx     context.Context
	cfg     serverConfig
	journal *journal
	queue   chan *campaignState
	rowSeen atomic.Int64 // crash sync-point counter

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string
	nextID    int
}

func newServer(ctx context.Context, cfg serverConfig) *server {
	if cfg.store == nil {
		cfg.store = sweep.NewCache()
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 128
	}
	if cfg.followMax <= 0 {
		cfg.followMax = 10 * time.Minute
	}
	if cfg.crashFn == nil {
		cfg.crashFn = func() { syscall.Kill(os.Getpid(), syscall.SIGKILL) }
	}
	// The journal backlog must fit the queue, or recovery would lose
	// campaigns a crash already accepted.
	depth := cfg.queueDepth
	if len(cfg.resume) > depth {
		depth = len(cfg.resume)
	}
	s := &server{
		ctx:       ctx,
		cfg:       cfg,
		journal:   cfg.journal,
		queue:     make(chan *campaignState, depth),
		campaigns: map[string]*campaignState{},
		nextID:    cfg.startID,
	}
	for _, e := range cfg.resume {
		s.resumeCampaign(e)
	}
	if !cfg.noRunLoop {
		go s.runLoop()
	}
	return s
}

// resumeCampaign re-enqueues one journaled-but-unfinished submission.
// Replayed rows come out of the result store as cache hits, so the
// resumed campaign recomputes only the suffix the crash interrupted
// and exports byte-identically to an uninterrupted run.
func (s *server) resumeCampaign(e journalEntry) {
	spec := e.Spec
	name, run, err := s.validateSpec(&spec)
	ctx, cancel := context.WithCancel(s.ctx)
	c := &campaignState{
		id: e.ID, spec: spec, name: name, run: run, resumed: true, state: stateQueued,
		ctx: ctx, cancel: cancel, finished: make(chan struct{}),
		onRow: s.rowSyncPoint,
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	if err != nil {
		// The spec no longer validates (registry drift across the
		// restart): surface it as a failed campaign, not a dead daemon.
		c.state = stateFailed
		c.errMsg = fmt.Sprintf("resume: %v", err)
		close(c.finished)
		s.journal.finish(c.id, stateFailed)
		return
	}
	s.queue <- c // capacity ≥ len(resume) by construction
}

// rowSyncPoint is the fault-injection hook: every appended progress
// row ticks a daemon-wide counter, and crossing cfg.crashAfter kills
// the process mid-campaign — deterministically, for the recovery
// suite.
func (s *server) rowSyncPoint() {
	if s.cfg.crashAfter > 0 && s.rowSeen.Add(1) == int64(s.cfg.crashAfter) {
		s.cfg.crashFn()
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/rows", s.handleRows)
	mux.HandleFunc("GET /v1/campaigns/{id}/{artifact}", s.handleExport)
	mux.HandleFunc("GET /v1/replay", s.handleReplay)
	return mux
}

// runLoop executes campaigns one at a time, in submission order. One
// campaign already saturates the CPUs through its own worker pool;
// serializing keeps memory bounded and wall-clock accounting honest.
func (s *server) runLoop() {
	for {
		select {
		case <-s.ctx.Done():
			return
		case c := <-s.queue:
			if c.ctx.Err() != nil { // cancelled while queued
				c.setState(stateCancelled)
				close(c.finished)
				continue
			}
			s.runCampaign(c)
		}
	}
}

func (s *server) runCampaign(c *campaignState) {
	defer close(c.finished)
	if c.journaled != nil {
		<-c.journaled
	}
	c.setState(stateRunning)
	var err error
	if contained := sweep.Contain(func() { err = c.run(c) }); contained != nil {
		line, _, _ := strings.Cut(contained.Error(), "\n")
		err = errors.New(line)
	}
	switch {
	case err != nil:
		c.fail(err)
	case c.ctx.Err() != nil:
		c.setState(stateCancelled)
	default:
		c.setState(stateDone)
	}
	s.journal.finish(c.id, c.status().State)
}

// experimentKey is the content address of one campaign run: the job
// descriptor carries everything that determines the result (and
// nothing that doesn't — see experiment.CampaignJob), and the derived
// per-run seed keys separately so distinct seeds cannot collide. An
// empty key (the descriptor failed to encode) tells sweep.Memo not to
// cache.
func experimentKey(job experiment.CampaignJob) string {
	key, _ := sweep.Key(struct {
		Kind string                 `json:"kind"`
		Job  experiment.CampaignJob `json:"job"`
	}{Kind: kindExperiment, Job: job}, job.Seed)
	return key
}

// loadKey is the content address of one fleet run. The replay token
// canonically renders every knob that determines the run, and the
// per-run seed again keys separately.
func loadKey(cfg load.Config) string {
	seed := cfg.Seed
	cfg.Seed = 0
	key, _ := sweep.Key(struct {
		Kind  string `json:"kind"`
		Token string `json:"token"`
	}{Kind: kindLoad, Token: cfg.ReplayToken()}, seed)
	return key
}

// Failed runs (watchdog/panic — wall-clock facts, not functions of the
// key) are never cached.
func keepResult(r experiment.RunResult) bool { return r.FailReason == "" }
func keepRow(r load.Row) bool                { return !r.Run.Failed }

// runExperiment and runLoad run the same way: the runner offers
// Intercept(job, run); the closure memoizes run through the result
// store, counts the hit or miss, notes the row's key and feeds the row
// to the rows stream. Their exports are memoized in the same store
// under the campaign's export key.
func (s *server) runExperiment(c *campaignState, camp experiment.Campaign, co experiment.CampaignOpts) error {
	co.Context, co.Progress = c.ctx, c.progress
	co.Intercept = func(job experiment.CampaignJob, run func() experiment.RunResult) experiment.RunResult {
		key := experimentKey(job)
		res, hit := sweep.Memo(s.cfg.store, key, keepResult, run)
		c.record(key, hit, res.FailReason != "", experimentRow{
			CampaignJob: job, Completed: res.Completed,
			DownloadS: res.DownloadTime.Seconds(), CellShare: res.CellShare(),
			Subflows: res.Subflows, Fail: res.FailReason, Cached: hit,
		})
		return res
	}
	m := camp.Make(co)
	return c.export(s.cfg.store,
		artifact{"export.csv", func(w io.Writer) error { return experiment.WriteCSV(w, m) }},
		artifact{"export.json", func(w io.Writer) error { return experiment.WriteReportJSON(w, m) }},
	)
}

func (s *server) runLoad(c *campaignState, so load.SweepOpts) error {
	so.Context, so.Progress = c.ctx, c.progress
	so.Intercept = func(job load.SweepJob, run func() load.Row) load.Row {
		key := loadKey(job.Config)
		row, hit := sweep.Memo(s.cfg.store, key, keepRow, run)
		c.record(key, hit, row.Run.Failed, row)
		return row
	}
	sw := load.RunSweep(so)
	arts := []artifact{
		{"export.csv", func(w io.Writer) error { return sw.WriteCSV(w, so.Base) }},
		{"export.json", func(w io.Writer) error { return sw.WriteJSON(w, so.Base) }},
	}
	if len(sw.ExportResilience()) > 0 {
		arts = append(arts,
			artifact{"resilience.csv", func(w io.Writer) error { return sw.WriteResilienceCSV(w, so.Base) }},
			artifact{"resilience.json", func(w io.Writer) error { return sw.WriteResilienceJSON(w, so.Base) }})
	}
	return c.export(s.cfg.store, arts...)
}

// validateSpec is the one place the daemon branches on spec.Kind: it
// checks a spec at the boundary and returns the campaign's display
// name and the function that runs it to its exports.
func (s *server) validateSpec(spec *campaignSpec) (name string, run func(*campaignState) error, err error) {
	if spec.Kind == "" {
		spec.Kind = kindExperiment
	}
	switch spec.Kind {
	case kindExperiment:
		camp, err := experiment.ParseCampaign(spec.Experiment)
		if err != nil {
			return "", nil, err
		}
		co := experiment.CampaignOpts{
			Reps: spec.Reps, Seed: spec.Seed, Workers: spec.Workers,
			SampleProfiles: true, SelfCheck: spec.SelfCheck,
		}
		if err := co.Validate(); err != nil {
			return "", nil, err
		}
		return camp.Name, func(c *campaignState) error { return s.runExperiment(c, camp, co) }, nil
	case kindLoad:
		so := load.SweepOpts{
			Rates: spec.Rates, Clients: spec.Clients, Scheds: spec.Scheds,
			Reps: spec.Reps, Seed: spec.Seed, Workers: spec.Workers,
		}
		if spec.Base != "" { // empty = package defaults
			if so.Base, err = load.ParseReplay(spec.Base); err != nil {
				return "", nil, fmt.Errorf("bad base token: %v", err)
			}
		}
		if err := so.Validate(); err != nil {
			return "", nil, err
		}
		return "", func(c *campaignState) error { return s.runLoad(c, so) }, nil
	}
	return "", nil, fmt.Errorf("unknown kind %q (want %q or %q)", spec.Kind, kindExperiment, kindLoad)
}

// maxSpecBytes bounds a submitted spec; real ones are a few hundred
// bytes.
const maxSpecBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaignSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "bad campaign spec: %v", err)
		return
	}
	name, run, err := s.validateSpec(&spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	c := &campaignState{
		spec: spec, name: name, run: run, state: stateQueued,
		ctx: ctx, cancel: cancel, finished: make(chan struct{}),
		journaled: make(chan struct{}),
		onRow:     s.rowSyncPoint,
	}
	s.mu.Lock()
	s.nextID++
	c.id = fmt.Sprintf("c%d", s.nextID)
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.mu.Unlock()
	select {
	case s.queue <- c:
	default:
		cancel()
		s.mu.Lock()
		delete(s.campaigns, c.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		// Nothing was journaled, so a rejected submission leaves no
		// state to resurrect. Retry-After tells the client when to
		// re-ask.
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "campaign queue full")
		return
	}
	// Journal before acknowledging: once the client sees 201, a crash
	// cannot forfeit the submission. (A crash in the gap before this
	// write loses only a campaign nobody was told was accepted — and
	// the run loop is gated on c.journaled, so that lost campaign has
	// provably computed nothing either.)
	s.journal.record(journalEntry{ID: c.id, Name: name, Spec: spec})
	close(c.journaled)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, c.status())
}

// handleHealthz reports the durability surface: result-store health
// (segments, corrupt-record count, degraded mode), the journal's
// store health plus its count of records that failed decoding, and
// queue pressure. "degraded" means the daemon still serves but
// something durable is running memory-only. cache_entries and
// cache_hits/misses count the store's export records and lookups as
// well as its rows; a campaign's status counts its rows only.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	entries, hits, misses := s.cfg.store.Stats()
	view := struct {
		Status       string             `json:"status"`
		QueueLen     int                `json:"queue_len"`
		QueueCap     int                `json:"queue_cap"`
		Campaigns    int                `json:"campaigns"`
		CacheEntries int                `json:"cache_entries"`
		CacheHits    int64              `json:"cache_hits"`
		CacheMisses  int64              `json:"cache_misses"`
		Store        *sweep.StoreHealth `json:"store,omitempty"`
		Journal      *journalHealth     `json:"journal,omitempty"`
	}{
		Status: "ok", QueueLen: len(s.queue), QueueCap: cap(s.queue),
		CacheEntries: entries, CacheHits: hits, CacheMisses: misses,
	}
	s.mu.Lock()
	view.Campaigns = len(s.campaigns)
	s.mu.Unlock()
	if h := s.cfg.store.Health(); h.Dir != "" {
		view.Store = &h
		if h.Degraded {
			view.Status = "degraded"
		}
	}
	if jh := s.journal.health(); jh != nil {
		view.Journal = jh
		if jh.Degraded {
			view.Status = "degraded"
		}
	}
	writeJSON(w, view)
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) *campaignState {
	s.mu.Lock()
	c := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if c == nil {
		httpError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
	}
	return c
}

func (s *server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Experiments []string `json:"experiments"`
	}{experiment.CampaignNames()})
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]statusView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.campaigns[id].status())
	}
	s.mu.Unlock()
	entries, hits, misses := s.cfg.store.Stats()
	writeJSON(w, struct {
		Campaigns    []statusView `json:"campaigns"`
		CacheEntries int          `json:"cache_entries"`
		CacheHits    int64        `json:"cache_hits"`
		CacheMisses  int64        `json:"cache_misses"`
	}{views, entries, hits, misses})
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if c := s.lookup(w, r); c != nil {
		writeJSON(w, c.status())
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	c.cancel()
	writeJSON(w, c.status())
}

// handleRows streams the campaign's per-run rows as NDJSON. Rows
// arrive in completion order (the progress feed); the deterministic
// artifacts are the export endpoints. The stream follows a running
// campaign until it reaches a terminal state — but never forever: a
// follower's lifetime is capped at cfg.followMax, each write carries
// a deadline so a stalled client errors the connection instead of
// pinning a handler goroutine, and client disconnect (request context)
// ends the stream between writes.
func (s *server) handleRows(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	ctl := http.NewResponseController(w)
	expiry := time.NewTimer(s.cfg.followMax)
	defer expiry.Stop()
	sent := 0
	for {
		c.mu.Lock()
		pending := c.rows[sent:]
		terminal := c.terminal()
		c.mu.Unlock()
		// A dead client surfaces as a write error (under its own
		// deadline), which ends the follower.
		ctl.SetWriteDeadline(time.Now().Add(30 * time.Second))
		for _, row := range pending {
			if _, err := w.Write(row); err != nil {
				return
			}
			w.Write([]byte("\n"))
			sent++
		}
		if flusher != nil {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-expiry.C:
			// Bounded lifetime: the client re-issues the request and
			// picks up from the full feed (rows are cumulative).
			return
		case <-c.finished:
		case <-time.After(150 * time.Millisecond):
		}
	}
}

func (s *server) handleExport(w http.ResponseWriter, r *http.Request) {
	c := s.lookup(w, r)
	if c == nil {
		return
	}
	artifact := r.PathValue("artifact")
	c.mu.Lock()
	terminal := c.terminal()
	body, ok := c.exports[artifact]
	c.mu.Unlock()
	if !terminal {
		httpError(w, http.StatusConflict, "campaign %s is %s; exports appear once it finishes", c.id, c.status().State)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "campaign %s has no artifact %q", c.id, artifact)
		return
	}
	if strings.HasSuffix(artifact, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Write(body)
}

// handleReplay re-executes one run from its replay token, answering
// from the content-addressed cache when the identical run (same
// canonical config, same seed) already happened — a row lookup, not a
// recomputation.
func (s *server) handleReplay(w http.ResponseWriter, r *http.Request) {
	token := r.URL.Query().Get("token")
	if token == "" {
		httpError(w, http.StatusBadRequest, "missing token query parameter")
		return
	}
	cfg, err := load.ParseReplay(token)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	row, hit := sweep.Memo(s.cfg.store, loadKey(cfg), keepRow, func() load.Row { return load.RunRow(cfg) })
	writeJSON(w, struct {
		Cached bool `json:"cached"`
		load.Row
	}{hit, row})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}
