// Command adnet-server serves the PODC-2020 reconfiguration
// algorithms as a streaming HTTP/JSON API: a bounded worker pool
// executes runs, an LRU cache answers repeated specs without
// re-simulation, and per-round statistics stream as NDJSON.
//
// Usage:
//
//	adnet-server -addr :8080 -workers 8 -queue 128 -cache 512
//
// Example session:
//
//	curl -s localhost:8080/v1/algorithms
//	curl -s -X POST localhost:8080/v1/runs \
//	    -d '{"algorithm":"graph-to-star","workload":"line","n":1024,"seed":7}'
//	curl -s localhost:8080/v1/runs/<id>
//	curl -sN localhost:8080/v1/runs/<id>/rounds
//	curl -sN localhost:8080/v1/runs/<id>/topology
//	curl -sN 'localhost:8080/v1/runs/<id>/topology?format=packed'
//	curl -s -X POST localhost:8080/v1/sweeps \
//	    -d '{"algorithms":["graph-to-star"],"workloads":["line","ring"],
//	         "sizes":[256,1024],"seeds":[1,2,3]}'
//	curl -s localhost:8080/v1/sweeps/<id>
//	curl -sN localhost:8080/v1/sweeps/<id>/cells
//	curl -s localhost:8080/v1/sweeps/<id>/aggregate
//	curl -s localhost:8080/metrics
//
// Every process exports its instruments in Prometheus text format at
// GET /metrics, logs structured lines (-log-format text|json) carrying
// the X-Adnet-Request-Id of the request that caused them, and can
// expose the runtime profiler under /debug/pprof/ with -pprof.
//
// With -data-dir the server keeps a write-ahead journal of every
// executed sweep cell: after a crash (kill -9 included) a restart on
// the same directory replays the intact journal prefix, re-marks the
// interrupted sweeps as resumable and re-executes only the missing
// cells — the final aggregate is byte-identical to an uninterrupted
// run. See the durability section of DESIGN.md.
//
// With -coordinator the server runs no local sweeps: it shards each
// sweep grid across the worker servers registered with -fleet-workers
// (or POST /v1/fleet/workers) and merges their cell streams, which it
// aggregates itself — see the fleet topology section of DESIGN.md:
//
//	adnet-server -addr :8080 -coordinator \
//	    -fleet-workers http://worker1:8081,http://worker2:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adnet/internal/fleet"
	"adnet/internal/obs"
	"adnet/internal/service"
)

func main() {
	// Flag defaults are the library's: a zero Config filled in.
	def := service.Config{}.WithDefaults()
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", def.QueueDepth, "job queue depth")
	cache := flag.Int("cache", def.CacheSize, "run replays cached for repeated runs (entries; sweep outcomes are indexed apart, max(cache, sweeps x sweep-cells); <0 disables both; a resumed sweep replays its journal either way)")
	maxN := flag.Int("max-n", def.MaxN, "largest accepted network size")
	timeLimit := flag.Duration("time-limit", def.RunTimeLimit, "wall-clock budget per run")
	retain := flag.Int("retain", def.RetainJobs, "finished jobs kept queryable")
	sweepWorkers := flag.Int("sweep-workers", 0, "engine fleet size per sweep (0 = GOMAXPROCS)")
	sweepCells := flag.Int("sweep-cells", def.MaxSweepCells, "largest accepted sweep grid (cells)")
	sweeps := flag.Int("sweeps", def.MaxConcurrentSweeps, "concurrent sweeps before 503")
	sweepTimeLimit := flag.Duration("sweep-time-limit", def.SweepTimeLimit, "wall-clock budget per sweep job")
	retainSweeps := flag.Int("retain-sweeps", def.RetainSweeps, "finished sweep jobs kept queryable")
	streamWriteTimeout := flag.Duration("stream-write-timeout", def.StreamWriteTimeout, "per-batch write deadline on streaming endpoints; stalled subscribers are dropped (negative = none)")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead sweep journal; on restart, intact journals resume interrupted sweeps re-executing only the missing cells (empty = no durability)")
	coordinator := flag.Bool("coordinator", false, "coordinator mode: shard sweep grids across registered worker servers instead of the local engine fleet")
	fleetWorkers := flag.String("fleet-workers", "", "coordinator mode: comma-separated worker base URLs registered at startup (more can join via POST /v1/fleet/workers)")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	pprofOn := flag.Bool("pprof", false, "expose the runtime profiler under /debug/pprof/")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat)
	if err != nil {
		fatal(err)
	}
	// One registry per process: the service manager and (in
	// coordinator mode) the fleet dispatcher register their instruments
	// side by side, so a single GET /metrics scrape covers both.
	reg := obs.NewRegistry()

	var coord *fleet.Coordinator
	switch {
	case *coordinator:
		coord = fleet.New(fleet.Config{Metrics: reg, Logger: logger})
		for _, u := range strings.Split(*fleetWorkers, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			st, err := coord.Register(context.Background(), u)
			if err != nil {
				// Not fatal: the worker may come up later and register
				// itself (or be re-registered) via the fleet endpoint.
				logger.Warn("fleet registration failed", slog.String("url", u), slog.String("error", err.Error()))
				continue
			}
			logger.Info("fleet worker registered", slog.String("worker", st.ID), slog.String("url", st.URL))
		}
	case *fleetWorkers != "":
		fatal(errors.New("-fleet-workers requires -coordinator"))
	}

	mgr := service.NewManager(service.Config{
		Fleet:               coord,
		DataDir:             *dataDir,
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheSize:           *cache,
		MaxN:                *maxN,
		RunTimeLimit:        *timeLimit,
		RetainJobs:          *retain,
		SweepWorkers:        *sweepWorkers,
		MaxSweepCells:       *sweepCells,
		MaxConcurrentSweeps: *sweeps,
		SweepTimeLimit:      *sweepTimeLimit,
		RetainSweeps:        *retainSweeps,
		StreamWriteTimeout:  *streamWriteTimeout,
		Metrics:             reg,
		Logger:              logger,
	})
	// Recover before serving: intact journals from a previous process
	// life seed the cache and resubmit interrupted sweeps. A corrupt
	// journal (mid-file checksum mismatch, not a torn tail) is refused
	// loudly rather than silently resumed over bad data.
	if err := mgr.Recover(); err != nil {
		fatal(err)
	}
	handler := service.NewHandler(mgr)
	if *pprofOn {
		// The profiler shares the listener but not the instrumented
		// mux: profile endpoints are ops-only and stay out of the
		// request metrics.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("adnet-server listening",
		slog.String("addr", *addr), slog.Bool("coordinator", coord != nil), slog.Bool("pprof", *pprofOn))

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	logger.Info("adnet-server shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown", slog.String("error", err.Error()))
	}
	mgr.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adnet-server:", err)
	os.Exit(1)
}
