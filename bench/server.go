package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// maxConns is the benchmark's connection budget: one per CPU of the 2-CPU
// host the bounds were measured on.
const maxConns = 2

// newClient returns the one HTTP client a workload's load goroutines share.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// server is one running expandersvc process.
type server struct {
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

// startServer spawns expandersvc on graphPath with only -graph, -mmap and
// -addr set, and returns once /healthz answers 200, together with the time
// from spawn to that answer.
func startServer(bin, graphPath string, log io.Writer) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-graph", graphPath, "-mmap", "-addr", addr)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = childAttr()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting expandersvc: %w", err)
	}
	s := &server{url: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("expandersvc exited before becoming healthy: %v", cmd.ProcessState)
		case <-time.After(time.Millisecond):
		}
	}
	s.stop()
	return nil, 0, errors.New("expandersvc did not become healthy within a minute")
}

// stop terminates the process and waits until it has exited: SIGTERM for a
// graceful drain, SIGKILL if that takes more than five seconds.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// kill ends the process at once and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// post sends one JSON POST and returns the status, the body and the time
// from sending the request to reading the last body byte. buf is reused for
// the body.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, buf.Bytes(), lat, err
}

// statz is the part of GET /statz the benchmark reads.
type statz struct {
	Epoch         int64 `json:"epoch"`
	Decomposition struct {
		Clusters int `json:"clusters"`
	} `json:"decomposition"`
	Pool struct {
		Completed   int64   `json:"completed"`
		QueueWaitMs float64 `json:"queue_wait_ms"`
	} `json:"pool"`
	Families map[string]struct {
		Errors    int64 `json:"errors"`
		Rejected  int64 `json:"rejected"`
		CacheHits int64 `json:"cache_hits"`
		Coalesced int64 `json:"coalesced"`
	} `json:"families"`
}

func getStatz(c *http.Client, base string) (*statz, error) {
	resp, err := c.Get(base + "/statz")
	if err != nil {
		return nil, fmt.Errorf("GET /statz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /statz: %s", resp.Status)
	}
	var st statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /statz: %w", err)
	}
	return &st, nil
}

// serveCounters are the serve layer's /statz counters summed over families.
type serveCounters struct {
	runs, cacheHits, coalesced, rejected, errors int64
	queueWaitMs                                  float64
}

func (st *statz) counters() serveCounters {
	c := serveCounters{runs: st.Pool.Completed, queueWaitMs: st.Pool.QueueWaitMs}
	for _, f := range st.Families {
		c.cacheHits += f.CacheHits
		c.coalesced += f.Coalesced
		c.rejected += f.Rejected
		c.errors += f.Errors
	}
	return c
}

func (c serveCounters) minus(o serveCounters) serveCounters {
	return serveCounters{
		runs: c.runs - o.runs, cacheHits: c.cacheHits - o.cacheHits, coalesced: c.coalesced - o.coalesced,
		rejected: c.rejected - o.rejected, errors: c.errors - o.errors, queueWaitMs: c.queueWaitMs - o.queueWaitMs,
	}
}

func (c serveCounters) plus(o serveCounters) serveCounters {
	return serveCounters{
		runs: c.runs + o.runs, cacheHits: c.cacheHits + o.cacheHits, coalesced: c.coalesced + o.coalesced,
		rejected: c.rejected + o.rejected, errors: c.errors + o.errors, queueWaitMs: c.queueWaitMs + o.queueWaitMs,
	}
}
