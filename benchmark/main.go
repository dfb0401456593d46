// Command benchmark is the repository's one benchmark: six workloads
// from the engine's round loop to the coordinator+workers fleet, five
// end-to-end metrics taken at the caller with tracing off, and a
// separate traced run that attributes the time to each module by timing
// calls into its public functions and reading what the server exports.
// BENCHMARK.json declares the workloads, metrics and bounds;
// benchmark/README.md is the catalogue with the reasons.
//
// Usage, from the repository root:
//
//	go run ./benchmark                        # every workload, end-to-end metrics
//	go run ./benchmark -trace 1               # every workload, per-layer metrics + span files
//	go run ./benchmark -runs 10 -out dir      # ten seeds per workload: one "set"
//	go run ./benchmark -workload serve-runs -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare a/result.json b/result.json
//
// With -workload the command runs that workload in this process and
// prints, after one `workload metric value unit` line per metric, a
// JSON object {"correct","attempted","failed","metrics"} as the last
// line of standard output. Without it the command is the driver: it
// re-executes itself once per workload, so heap, RSS and GC state never
// leak between workloads, and writes the collected runs to
// <out>/result.json (result-trace.json when tracing). Either form exits
// non-zero when an output was wrong — a wrong leader, a missing frame,
// an aggregate that differs from the reference — not when it was slow.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is everything one workload run is given.
type config struct {
	workload string
	seed     int64   // the only input to workload generation
	seconds  float64 // how long the measured loop runs
	outDir   string
	nproc    int // client goroutines and engine threads never exceed it
	size     sizing
	launch   launcher // how HTTP workloads get their servers
	// build compiles the server binary (at most once) and says how long
	// that took; traced HTTP runs report it as cmd.build_s.
	build func() (time.Duration, error)
	tr    *tracer // non-nil on a traced run
	log   io.Writer
}

// metrics are the metrics of the run's mode.
func (c *config) metrics() []metricDef {
	if c.tr != nil {
		return perLayer
	}
	return endToEnd
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	problems          []string // what the oracles rejected, first few
	metrics           map[string]float64
	digest            string // hash of the simulated statistics; equal across commits iff traces are unchanged
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// op counts one attempted operation; a non-nil err is an oracle's
// rejection of its output and counts it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.wrong(err)
	}
}

// wrong records an incorrect output that is not one more attempted op
// (a whole-run oracle such as the aggregate reference).
func (r *result) wrong(err error) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// metricValue is the wire shape of one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the object a workload run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns a result into the report of its mode: every declared
// metric exactly once, 0 for a per-layer metric whose layer does no
// work on this workload, an error for a metric the run should have
// measured and did not (or measured without declaring).
func finish(cfg *config, res *result) (report, error) {
	defs := cfg.metrics()
	rep := report{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		switch {
		case ok && !d.measuredOn(cfg.workload):
			return rep, fmt.Errorf("%s: metric %s is declared as not measured here", cfg.workload, d.name)
		case !ok && d.measuredOn(cfg.workload):
			return rep, fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return rep, fmt.Errorf("%s: metric %s is not finite", cfg.workload, d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range res.metrics {
		if _, ok := rep.Metrics[name]; !ok {
			return rep, fmt.Errorf("%s: metric %s is not declared for this mode", cfg.workload, name)
		}
	}
	return rep, nil
}

// printReport writes the human lines, the digest and the result object.
func printReport(w io.Writer, cfg *config, res *result, rep report) error {
	for _, d := range cfg.metrics() {
		m := rep.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", cfg.workload, d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s %s %s\n", digestPrefix, cfg.workload, res.digest)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// digestPrefix marks the informational outcome_digest line.
const digestPrefix = "# outcome_digest"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in this process (default: drive every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload generation seed")
	seconds := fs.Float64("seconds", 10, "seconds each workload's measured loop runs")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and span files in place of the end-to-end metrics")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for result files, span files, the server binary and temp data dirs")
	runs := fs.Int("runs", 1, "driver: run every workload this many times, with seeds seed, seed+1, …")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two result files"))
		}
		regressed, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("-seconds and -runs must be positive, -trace 0 or 1"))
	}
	if _, err := os.Stat(filepath.Join("cmd", "adnet-server")); err != nil {
		return fail(errors.New("run from the repository root (cmd/adnet-server not found)"))
	}

	if *workload == "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		d := driver{seed: *seed, seconds: *seconds, trace: *trace, runs: *runs, outDir: *out, stdout: stdout, stderr: stderr}
		ok, err := d.drive(ctx)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	procs := newProcLauncher(*out)
	// No adnet-server outlives the benchmark, whatever ends it: a return
	// or a panic runs the deferred stopAll, a signal the goroutine below,
	// and SIGKILL of the benchmark reaches the servers as their
	// parent-death signal.
	defer procs.stopAll()
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-signals
		procs.stopAll()
		os.Exit(130)
	}()
	cfg := &config{
		workload: w.name, seed: *seed, seconds: *seconds, outDir: *out,
		nproc: runtime.GOMAXPROCS(0), size: full, log: stderr,
		launch: procs.launch,
		build: func() (time.Duration, error) {
			_, took, err := procs.build()
			return took, err
		},
	}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	return runOne(cfg, w, stdout)
}

// runOne runs one workload in this process and prints its report.
func runOne(cfg *config, w workloadDef, stdout io.Writer) int {
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(cfg.log, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.tr != nil {
		if err := cfg.tr.write(cfg.outDir, cfg.workload); err != nil {
			fmt.Fprintf(cfg.log, "benchmark: %s: writing spans: %v\n", cfg.workload, err)
			return 1
		}
	}
	rep, err := finish(cfg, res)
	if err != nil {
		fmt.Fprintln(cfg.log, "benchmark:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(cfg.log, "benchmark: %s: wrong output: %s\n", cfg.workload, p)
	}
	if err := printReport(stdout, cfg, res, rep); err != nil {
		fmt.Fprintln(cfg.log, "benchmark:", err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// driver runs the whole catalogue, one child process per workload.
type driver struct {
	seed           int64
	seconds        float64
	trace, runs    int
	outDir         string
	stdout, stderr io.Writer
}

// resultFile is what the driver writes and -compare reads.
type resultFile struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

// meta records where and how a set of runs was taken.
type meta struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Started    string  `json:"started"`
}

// runRecord is one child's report plus what identifies the run.
type runRecord struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	OutcomeDigest string `json:"outcome_digest"`
	report
}

func (d *driver) drive(ctx context.Context) (ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	nproc := runtime.NumCPU()
	file := resultFile{Meta: meta{
		GoVersion: runtime.Version(), Commit: gitCommit(), CPU: cpuModel(),
		GOMAXPROCS: nproc, Seconds: d.seconds, Trace: d.trace == 1,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	fmt.Fprintf(d.stdout, "# %s commit %s on %q GOMAXPROCS=%d\n", file.Meta.GoVersion, file.Meta.Commit, file.Meta.CPU, nproc)
	ok = true
	for r := 0; r < d.runs; r++ {
		for _, w := range workloads {
			seed := d.seed + int64(r)
			cmd := exec.CommandContext(ctx, exe,
				"-workload", w.name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(d.trace),
				"-out", d.outDir)
			cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
			cmd.Stderr = d.stderr
			// A signal reaches the child as SIGINT so it tears its
			// servers down itself; WaitDelay bounds a child that hangs.
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			cmd.WaitDelay = 30 * time.Second
			output, runErr := cmd.Output()
			rec, perr := parseChildOutput(output, d.stdout)
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			if perr != nil {
				return false, fmt.Errorf("%s: %v (child: %v)", w.name, perr, runErr)
			}
			rec.Workload, rec.Seed = w.name, seed
			file.Runs = append(file.Runs, rec)
			if runErr != nil || !rec.Correct {
				ok = false
			}
		}
	}
	name := "result.json"
	if d.trace == 1 {
		name = "result-trace.json"
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(d.outDir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(d.outDir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(d.stdout, "# wrote %s\n", path)
	return ok, nil
}

// parseChildOutput echoes a child's metric lines to w and decodes its
// digest line and trailing result object.
func parseChildOutput(output []byte, w io.Writer) (runRecord, error) {
	var rec runRecord
	var last string
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if last != "" {
			fmt.Fprintln(w, last)
		}
		if rest, ok := strings.CutPrefix(line, digestPrefix+" "); ok {
			if _, digest, ok := strings.Cut(rest, " "); ok {
				rec.OutcomeDigest = digest
			}
		}
		last = line
	}
	if last == "" {
		return rec, errors.New("child printed no result")
	}
	if err := json.Unmarshal([]byte(last), &rec.report); err != nil {
		return rec, fmt.Errorf("child's last line is not a result object: %v", err)
	}
	return rec, nil
}

// gitCommit is the checkout's HEAD, "unknown" outside a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}
