package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// served is one running vlpserved child with its shipped defaults; the
// benchmark passes only a loopback address and a fresh store directory.
type served struct {
	cmd      *exec.Cmd
	base     string
	storeDir string
	exited   chan struct{}
}

// startServer execs vlpserved and returns once /healthz answers 200,
// with the time that took.
func startServer(ctx context.Context, bin, storeDir string, log io.Writer) (*served, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &served{base: "http://" + port, storeDir: storeDir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", port, "-store-dir", storeDir)
	s.cmd.Stdout, s.cmd.Stderr = log, log
	// The child dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start vlpserved: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status is not used: stop or a failed probe reports it
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("vlpserved exited before it was ready")
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		default:
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("vlpserved not ready after 30s")
		}
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freePort returns a loopback address the kernel just handed out.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop drains the child with SIGTERM, the shipped shutdown path, and
// kills it if it has not exited within 30 s. It returns once the
// process has ended.
func (s *served) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a failed signal means it already exited
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// peakRSSMB reads the child's VmHWM.
func (s *served) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the child's user plus system CPU time so far.
func (s *served) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var utime, stime float64
	if _, err := fmt.Sscan(f[11], &utime); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &stime); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

func (s *served) stats(ctx context.Context, c *http.Client) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/stats", nil)
	if err != nil {
		return snap, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// newClient returns a client that holds at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// failKind classifies an operation that did not get a 2xx.
type failKind uint8

const (
	failNone failKind = iota
	fail429
	fail5xx
	failStatus // any other non-2xx
	failTransport
	failTimeout
)

// post sends one JSON body and reads the whole answer.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, failKind) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, failTransport
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, classifyErr(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, classifyErr(err)
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return resp.StatusCode, data, failNone
	case resp.StatusCode == http.StatusTooManyRequests:
		return resp.StatusCode, data, fail429
	case resp.StatusCode >= 500:
		return resp.StatusCode, data, fail5xx
	}
	return resp.StatusCode, data, failStatus
}

func classifyErr(err error) failKind {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return failTimeout
	}
	return failTransport
}
