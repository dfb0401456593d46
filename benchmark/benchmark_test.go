package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"adnet/internal/fleet"
	"adnet/internal/obs"
	"adnet/internal/service"
)

// tiny runs the whole catalogue in a few seconds: the same code paths
// as full, at op counts and sizes that only prove they work.
var tiny = sizing{
	starN: 128, floodN: 24,
	wreathSizes: []int{16, 24}, wreathSeeds: 2,
	serveN: 32, serveWarm: 4,
	sweepSizes: []int{8, 12}, sweepSeeds: 4, sweepWarm: 1,
	setups: 1, minOps: 4,
	cliqueN: 16, probeRounds: 4, hubFrames: 64, hubSubs: 4,
	journalRecs: 32, dynamicsN: 32, scalingSeeds: 1, penaltyRounds: 2,
}

// inProcess is the launcher the tests give the HTTP workloads: the
// same handler adnet-server mounts, on a loopback listener in this
// process, wired from the serverSpec the way main.go wires it from
// flags.
func inProcess(t *testing.T) launcher {
	return func(spec serverSpec) (*server, error) {
		reg := obs.NewRegistry()
		cfg := service.Config{Workers: spec.workers, SweepWorkers: spec.sweepWorkers, Metrics: reg}
		if spec.dataDir {
			cfg.DataDir = t.TempDir()
		}
		if spec.coordinator {
			cfg.Fleet = fleet.New(fleet.Config{Metrics: reg})
			for _, u := range spec.fleetWorkers {
				if _, err := cfg.Fleet.Register(context.Background(), u); err != nil {
					return nil, err
				}
			}
		}
		mgr := service.NewManager(cfg)
		if err := mgr.Recover(); err != nil {
			mgr.Close()
			return nil, err
		}
		srv := httptest.NewServer(service.NewHandler(mgr))
		return &server{
			base:      srv.URL,
			peakRSSMB: func() float64 { return 0 },
			stop:      sync.OnceFunc(func() { srv.Close(); mgr.Close() }),
		}, nil
	}
}

func testConfig(t *testing.T, workload string, traced bool) *config {
	cfg := &config{
		workload: workload, seed: 1, seconds: 0.02, outDir: t.TempDir(),
		nproc: 2, size: tiny, log: io.Discard,
		launch: inProcess(t),
		build:  func() (time.Duration, error) { return 0, nil },
	}
	if traced {
		cfg.tr = newTracer()
	}
	return cfg
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	var decl declared
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	return decl
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestEveryWorkloadEmitsEveryDeclaredMetric runs each workload, traced
// and untraced, and holds what it printed against BENCHMARK.json: every
// declared metric of the mode exactly once, finite, well named, with
// the declared unit, nothing undeclared, and a correct result object as
// the last line.
func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	decl := loadDeclared(t)
	for _, wl := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			name, want := wl.Name+"/end-to-end", decl.EndToEnd
			if traced {
				name, want = wl.Name+"/per-layer", decl.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				w, ok := findWorkload(wl.Name)
				if !ok {
					t.Fatalf("BENCHMARK.json declares workload %q, the catalogue has none", wl.Name)
				}
				cfg := testConfig(t, wl.Name, traced)
				var out bytes.Buffer
				if code := runOne(cfg, w, &out); code != 0 {
					t.Fatalf("exit code %d\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
					t.Fatalf("result: correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
				}
				printed := make(map[string]int)
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) == 4 && f[0] == wl.Name {
						printed[f[1]]++
					}
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("declared metric %s is missing", m.Name)
					case printed[m.Name] != 1:
						t.Errorf("metric %s printed %d times, want once", m.Name, printed[m.Name])
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is not finite", m.Name)
					case !metricName.MatchString(m.Name):
						t.Errorf("metric name %q is malformed", m.Name)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics reported, %d declared for this mode", len(rep.Metrics), len(want))
				}
				if traced {
					if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl.Name+".json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the two lists of names the
// benchmark lives by — the Go catalogue and BENCHMARK.json — equal.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	decl := loadDeclared(t)
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in the catalogue", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the catalogue", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, decl []declaredMetric, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d in the catalogue", kind, len(decl), len(defs))
			return
		}
		for i, m := range decl {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the catalogue", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if (m.Bound != nil) != (kind == "end_to_end") {
				t.Errorf("%s metric %s: only end-to-end metrics carry a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// TestWrongOutputFailsTheCommand: an oracle's rejection must reach the
// exit code and the result object, however fast the run was.
func TestWrongOutputFailsTheCommand(t *testing.T) {
	cfg := testConfig(t, wStarLarge, false)
	broken := workloadDef{name: wStarLarge, run: func(*config) (*result, error) {
		res := newResult()
		for _, m := range endToEnd {
			res.set(m.name, 1)
		}
		res.op(nil)
		res.op(errors.New("leader is 3, want u_max = 7"))
		return res, nil
	}}
	var out bytes.Buffer
	if code := runOne(cfg, broken, &out); code == 0 {
		t.Fatal("exit code 0 for a run with a wrong output")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Attempted != 2 || rep.Failed != 1 {
		t.Fatalf("result: correct %v, attempted %d, failed %d; want false, 2, 1", rep.Correct, rep.Attempted, rep.Failed)
	}
}

func TestJudge(t *testing.T) {
	bound := 0.10
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre * 1.005, centre * 0.995}
	}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		lower  bool
		bound  *float64
		expect string
	}{
		{"same", steady(100), steady(101), true, &bound, verdictWithin},
		{"slower latency", steady(100), steady(120), true, &bound, verdictRegressed},
		{"faster latency", steady(100), steady(80), true, &bound, verdictImproved},
		{"lower throughput", steady(100), steady(80), false, &bound, verdictRegressed},
		{"higher throughput", steady(100), steady(120), false, &bound, verdictImproved},
		{"noisy", []float64{60, 100, 140, 80, 120}, steady(100), true, &bound, verdictUnresolved},
		{"noisy but disjoint", []float64{60, 100, 140, 80, 120}, steady(40), true, &bound, verdictImproved},
		{"per-layer", steady(100), steady(200), true, nil, verdictNoBound},
	} {
		if got, _ := judge(tc.a, tc.b, tc.lower, tc.bound); got != tc.expect {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.expect)
		}
	}
}

// TestQuartileSpreadMatchesPython pins the spread to what Python's
// statistics.quantiles(xs, n=4) gives, the definition BENCHMARK.json's
// bounds are accepted under.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{4, 1, 2}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
