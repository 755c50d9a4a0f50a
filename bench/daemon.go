package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind: the tunerd binary, the
// daemon's log, result and span files. It sits at the root of the
// checkout (this package's parent) and is listed in .gitignore.
const buildDir = "../.bench_build"

// fixedDaemonFlags are the same for every daemon workload; a workload adds
// only its window and budget flags. Everything else is tunerd's default,
// self-monitoring included. -parallel 1 is the exact serial search: on two
// cores a retune then takes one and leaves the other to the requests sent
// beside it, where two search workers would share both with them and the
// run would time the scheduler. Any setting recommends the same.
var fixedDaemonFlags = []string{
	"-db", "tpch", "-sf", strconv.FormatFloat(tpchScale, 'g', -1, 64), "-auto-retune=false", "-drift-interval", "0", "-parallel", "1",
}

// tpchScale is the -sf above, for the in-process replay's catalog.
const tpchScale = 0.01

// buildTunerd compiles cmd/tunerd from the checkout's source and returns
// the binary's path. After the first build in a checkout this is an
// up-to-date check.
func buildTunerd() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "tunerd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/tunerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building tunerd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running tunerd child process.
type daemon struct {
	cmd     *exec.Cmd
	log     *os.File
	base    string // http://127.0.0.1:port
	flags   []string
	stopped sync.Once
}

// startDaemon boots tunerd on a free loopback port and waits until
// GET /healthz answers 200.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.Create(filepath.Join(buildDir, "tunerd.log"))
	if err != nil {
		return nil, err
	}
	flags := append(append([]string{}, fixedDaemonFlags...), extra...)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: logf, base: "http://" + addr, flags: flags}
	c := newConn(d.base)
	deadline := time.Now().Add(20 * time.Second)
	for {
		if status, _, err := c.do("GET", "/healthz", nil); err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("bench: tunerd did not answer /healthz within 20s; see " + logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to shut down, waits for it to exit, and kills it
// if it has not within ten seconds. Stopping twice is harmless.
func (d *daemon) stop() {
	d.stopped.Do(func() {
		defer d.log.Close()
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = d.cmd.Wait() // a signalled exit is the expected outcome
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
	})
}

// phaseCost is what a measured phase against a daemon cost.
type phaseCost struct {
	wall      time.Duration
	daemonCPU float64 // seconds of utime+stime, from /proc/<pid>/stat
	selfCPU   float64 // seconds this process, the load generator, used
}

// meter runs phase and accounts it.
func (d *daemon) meter(phase func()) (phaseCost, error) {
	cpu0, err := pidCPUSeconds(d.pid())
	if err != nil {
		return phaseCost{}, err
	}
	self0, start := selfCPUSeconds(), time.Now()
	phase()
	c := phaseCost{wall: time.Since(start), selfCPU: selfCPUSeconds() - self0}
	cpu1, err := pidCPUSeconds(d.pid())
	c.daemonCPU = cpu1 - cpu0
	return c, err
}

func (c *phaseCost) add(o phaseCost) {
	c.wall += o.wall
	c.daemonCPU += o.daemonCPU
	c.selfCPU += o.selfCPU
}

func (c phaseCost) generatorCPUPct() float64 { return 100 * c.selfCPU / c.wall.Seconds() }

// setProcessMetrics reports the traced run's process-level context.
func (d *daemon) setProcessMetrics(out *outcome, c phaseCost, st statusCounts) error {
	rss, err := pidStatusMB(d.pid(), "VmRSS")
	if err != nil {
		return err
	}
	out.set("tunerd.cpu_s", c.daemonCPU, 0)
	out.set("tunerd.rss_end_mb", rss, 0)
	out.set("bench.generator_cpu_pct", c.generatorCPUPct(), 0)
	out.set("http.status_4xx", float64(st.c4xx), 0)
	out.set("http.status_5xx", float64(st.c5xx), 0)
	return nil
}

// statusCounts counts error responses by class.
type statusCounts struct{ c4xx, c5xx int }

func (s *statusCounts) add(code int) {
	switch {
	case code >= 500:
		s.c5xx++
	case code >= 400:
		s.c4xx++
	}
}

// conn is one client connection: its own transport, capped at a single
// TCP connection, so a workload's connection count is what it says.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

// do sends one request and reads the whole response. The returned body is
// valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// budgetFlag renders a byte budget as tunerd's fractional-MB -budget and
// returns, with it, the byte count tunerd will derive from that text, which
// is what the in-process replay has to use.
func budgetFlag(bytes int64) (string, int64) {
	flag := strconv.FormatFloat((float64(bytes)+0.5)/(1<<20), 'f', 9, 64)
	mb, _ := strconv.ParseFloat(flag, 64) // cannot fail: FormatFloat wrote it
	return flag, int64(mb * (1 << 20))
}
