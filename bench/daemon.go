package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// daemon is one running mptcpd process. The serve driver owns its
// whole life: free port, boot with a /healthz deadline, captured
// stderr, SIGTERM then wait (SIGKILL after 10 s).
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	// bootS is exec to first healthy /healthz, in seconds.
	bootS float64
}

// live tracks running daemons so an interrupted harness can kill them
// (see killDaemons); a daemon must never outlive the benchmark.
var live struct {
	mu sync.Mutex
	m  map[*daemon]struct{}
}

func killDaemons() {
	live.mu.Lock()
	defer live.mu.Unlock()
	for d := range live.m {
		d.cmd.Process.Kill()
	}
}

// freePort asks the kernel for an unused loopback port by listening on
// port 0 and closing. Another process could take it before the daemon
// binds; that shows up as a failed boot, which is reported, not hidden.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots mptcpd on a free loopback port over storeDir and
// returns once /healthz answers 200. A boot that fails or takes longer
// than 10 s is an error carrying the daemon's stderr, never a hang.
func startDaemon(bin, storeDir string, hc *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a free port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{url: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-store", storeDir)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.mu.Lock()
	if live.m == nil {
		live.m = map[*daemon]struct{}{}
	}
	live.m[d] = struct{}{}
	live.mu.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.bootS = time.Since(start).Seconds()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.forget()
			return nil, fmt.Errorf("mptcpd exited during boot (%v); stderr:\n%s", d.cmd.ProcessState, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mptcpd not healthy on %s after 10s; stderr:\n%s", addr, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) forget() {
	live.mu.Lock()
	delete(live.m, d)
	live.mu.Unlock()
}

// stop sends SIGTERM, waits for the process to end (SIGKILL after
// 10 s) and returns its resource usage and how long the exit took.
func (d *daemon) stop() (remoteUsage, float64) {
	start := time.Now()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.forget()
	var u remoteUsage
	if ps := d.cmd.ProcessState; ps != nil {
		u.cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.rssKB = ru.Maxrss
		}
	}
	return u, time.Since(start).Seconds()
}

// newHTTPClient returns the serve driver's client: closed loop, one
// caller, at most one connection to the daemon.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
