// Command mptcpd serves the repo's measurement campaigns as a
// service: submit a campaign spec over HTTP/JSON, poll its progress,
// stream its per-run rows, and download CSV/JSON artifacts that are
// byte-identical to running paperbench or mptcpload directly. Repeat
// submissions are answered from a content-addressed result cache —
// runs are pure functions of (canonical config, seed), so caching is
// sound by construction.
//
//	mptcpd -addr :8080 -store /var/lib/mptcpd
//	curl -s localhost:8080/v1/campaigns -d '{"experiment":"fig8","reps":2,"seed":42}'
//	curl -s localhost:8080/v1/campaigns/c1
//	curl -s localhost:8080/v1/campaigns/c1/rows
//	curl -s localhost:8080/v1/campaigns/c1/export.csv
//	curl -s 'localhost:8080/v1/replay?token=clients=20,rate=3,...'
//	curl -s localhost:8080/healthz
//
// With -store, results persist in a segmented checksummed log and
// submissions are journaled before acceptance: kill -9 the daemon
// mid-campaign and the restarted daemon resumes the interrupted
// campaign, replaying completed rows from the store (cache hits) and
// recomputing only the missing suffix — exports are byte-identical to
// an uninterrupted run. Corrupt store records are skipped with a
// counted warning; disk write failures degrade to memory-only, both
// surfaced on /healthz.
//
// SIGINT/SIGTERM drains in-flight workers: the running campaign stops
// claiming new runs, its completed rows are exported with the
// campaign marked cancelled (a deliberate terminal state — drained
// campaigns are not resumed), and the listener shuts down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mptcplab/internal/cli"
	"mptcplab/internal/sweep"
)

// openDurable wires cfg's -store directory into it: the disk-backed
// result store under <dir>/results, the campaign journal under
// <dir>/journal, and the journal's incomplete entries queued for
// resume. Shared by main and the crash-recovery test helper.
func openDurable(cfg serverConfig) (serverConfig, error) {
	st, err := sweep.OpenStore(filepath.Join(cfg.storeDir, "results"), sweep.StoreOpts{})
	if err != nil {
		return cfg, err
	}
	j, incomplete, maxID, err := openJournal(filepath.Join(cfg.storeDir, "journal"))
	if err != nil {
		st.Close()
		return cfg, err
	}
	cfg.store = st
	cfg.journal = j
	cfg.resume = incomplete
	cfg.startID = maxID
	return cfg, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("mptcpd", parse, serve)

// parse is the flag → spec seam (internal/cli): it runs nothing, and
// touches no state.
func parse(args []string, stdout io.Writer) (serverConfig, error) {
	var cfg serverConfig
	fs := flag.NewFlagSet("mptcpd", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.storeDir, "store", "", "durable state directory: disk-backed result store + campaign journal with crash recovery (empty = in-memory only)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 128, "campaign queue capacity; submissions beyond it get 503 + Retry-After")
	fs.DurationVar(&cfg.followMax, "follow-max", 10*time.Minute, "maximum lifetime of one /rows follower connection")
	if err := cli.Parse(fs, args, stdout); err != nil {
		return cfg, err
	}
	if cfg.queueDepth < 1 {
		return cfg, fmt.Errorf("-queue-depth %d: must be at least 1", cfg.queueDepth)
	}
	if cfg.followMax <= 0 {
		return cfg, fmt.Errorf("-follow-max %s: must be positive", cfg.followMax)
	}
	return cfg, nil
}

// serve runs the daemon until its listener fails or a signal drains
// it.
func serve(cfg serverConfig, _, stderr io.Writer) error {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if cfg.storeDir != "" {
		var err error
		if cfg, err = openDurable(cfg); err != nil {
			return err
		}
		h := cfg.store.Health()
		fmt.Fprintf(stderr, "mptcpd: store %s: %d entries from %d segments (%d corrupt records skipped)\n",
			h.Dir, h.Entries, h.Segments, h.CorruptRecords)
		if n := len(cfg.resume); n > 0 {
			fmt.Fprintf(stderr, "mptcpd: resuming %d interrupted campaign(s) from the journal\n", n)
		}
	}

	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: newServer(ctx, cfg).routes(),
		// Edge hardening: slow-loris headers and idle keep-alives are
		// bounded. No global write timeout — /rows is a long-lived
		// follower with its own per-write deadlines and lifetime cap.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(stderr, "mptcpd: listening on %s\n", cfg.addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		fmt.Fprintln(stderr, "mptcpd: draining (signal received)")
		// The root context cancellation already tells the running
		// campaign's workers to finish their current runs and stop;
		// give the listener a bounded window to flush responses.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
