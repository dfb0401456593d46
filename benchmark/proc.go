package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serverSpec describes one adnet-server an HTTP workload needs, in
// terms both launchers understand: the process launcher turns it into
// flags, the in-process launcher of benchmark_test.go into a
// service.Config.
type serverSpec struct {
	workers      int      // -workers
	sweepWorkers int      // -sweep-workers
	dataDir      bool     // run with a fresh temp -data-dir (journal on)
	coordinator  bool     // -coordinator over fleetWorkers
	fleetWorkers []string // worker base URLs
}

// server is one running adnet-server as a workload sees it.
type server struct {
	base      string
	peakRSSMB func() float64 // VmHWM of the process; 0 when in-process
	stop      func()         // idempotent
}

// launcher brings one server up and returns it once /healthz answers.
type launcher func(serverSpec) (*server, error)

// procLauncher launches real adnet-server processes built from this
// checkout and owns their lifetime: every process it started is stopped
// by stopAll at the latest.
type procLauncher struct {
	outDir string

	buildOnce sync.Once
	bin       string
	buildTime time.Duration
	buildErr  error

	mu   sync.Mutex
	live []*proc
	seq  int
}

func newProcLauncher(outDir string) *procLauncher {
	return &procLauncher{outDir: outDir}
}

// build compiles cmd/adnet-server into <out>/bin once per process. The
// go command re-links only when the checkout changed, so across runs in
// one checkout the cost is the staleness check.
func (l *procLauncher) build() (string, time.Duration, error) {
	l.buildOnce.Do(func() {
		bin, err := filepath.Abs(filepath.Join(l.outDir, "bin", "adnet-server"))
		if err != nil {
			l.buildErr = err
			return
		}
		start := time.Now()
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/adnet-server")
		if out, err := cmd.CombinedOutput(); err != nil {
			l.buildErr = fmt.Errorf("go build ./cmd/adnet-server: %v\n%s", err, out)
			return
		}
		l.bin, l.buildTime = bin, time.Since(start)
	})
	return l.bin, l.buildTime, l.buildErr
}

// proc is one live server process.
type proc struct {
	cmd     *exec.Cmd
	logs    bytes.Buffer // stdout+stderr; read only after exited is closed
	exited  chan struct{}
	dataDir string
	once    sync.Once
}

// stop ends the process — SIGINT for the server's graceful shutdown,
// SIGKILL if that takes too long — waits until it is gone and removes
// its data dir.
func (p *proc) stop() {
	p.once.Do(func() {
		select {
		case <-p.exited:
		default:
			_ = p.cmd.Process.Signal(os.Interrupt)
			select {
			case <-p.exited:
			case <-time.After(10 * time.Second):
				_ = p.cmd.Process.Kill()
				<-p.exited
			}
		}
		if p.dataDir != "" {
			_ = os.RemoveAll(p.dataDir)
		}
	})
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// launch starts one server on a free loopback port and waits for
// /healthz. A server that exits or never answers is stopped and its
// captured output returned in the error.
func (l *procLauncher) launch(spec serverSpec) (*server, error) {
	bin, _, err := l.build()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	args := []string{"-addr", addr}
	if spec.workers > 0 {
		args = append(args, "-workers", strconv.Itoa(spec.workers))
	}
	if spec.sweepWorkers > 0 {
		args = append(args, "-sweep-workers", strconv.Itoa(spec.sweepWorkers))
	}
	if spec.coordinator {
		args = append(args, "-coordinator", "-fleet-workers", strings.Join(spec.fleetWorkers, ","))
	}
	p := &proc{exited: make(chan struct{})}
	l.mu.Lock()
	l.seq++
	seq := l.seq
	l.mu.Unlock()
	if spec.dataDir {
		p.dataDir, err = filepath.Abs(filepath.Join(l.outDir, "tmp", fmt.Sprintf("data-%d-%d", os.Getpid(), seq)))
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(p.dataDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", p.dataDir)
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = &p.logs
	p.cmd.Stderr = &p.logs
	dieWithParent(p.cmd)
	if err := p.cmd.Start(); err != nil {
		if p.dataDir != "" {
			_ = os.RemoveAll(p.dataDir)
		}
		return nil, err
	}
	go func() { _ = p.cmd.Wait(); close(p.exited) }()
	l.mu.Lock()
	l.live = append(l.live, p)
	l.mu.Unlock()

	base := "http://" + addr
	if err := waitHealthy(base, p.exited, 15*time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("adnet-server %s: %v\n--- server output ---\n%s", strings.Join(args, " "), err, p.logs.String())
	}
	pid := p.cmd.Process.Pid
	return &server{
		base:      base,
		peakRSSMB: func() float64 { return peakRSSMB(pid) },
		stop:      p.stop,
	}, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits,
// or the deadline passes.
func waitHealthy(base string, exited <-chan struct{}, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
		select {
		case <-exited:
			return errors.New("process exited before serving /healthz")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after %s: %v", limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopAll stops every process this launcher started that is still
// alive — at a normal end none is — and removes the temp dir if that
// leaves it empty.
func (l *procLauncher) stopAll() {
	l.mu.Lock()
	live := l.live
	l.live = nil
	l.mu.Unlock()
	for _, p := range live {
		p.stop()
	}
	_ = os.Remove(filepath.Join(l.outDir, "tmp")) // fails, as it should, while another run's files are there
}
