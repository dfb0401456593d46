package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adnet/internal/expt"
)

// Sizes of one BenchmarkServedTraffic iteration, taken from the
// repository benchmark's serve-runs and sweep-single workloads
// (benchmark/http.go, benchmark/catalog.go).
const (
	trafficClients    = 2   // concurrent run clients: serve-runs' nproc on two cores
	trafficRuns       = 200 // runs per client, every trafficResubmit-th a resubmission
	trafficResubmit   = 4   // serve-runs' resubmitEvery
	trafficWindow     = 48  // serve-runs' resubmitWindow: the last 48 fresh specs
	trafficStarN      = 512 // serve-runs' graph-to-star/line size
	trafficSweepSeeds = 64  // sweep-single's grid: 2 workloads × 8 sizes × 64 seeds = 1,024 cells
)

// BenchmarkServedTraffic is the traffic adnet-server's profile-guided
// build is tuned to: its CPU profile is cmd/adnet-server/default.pgo
// (README § Performance). It replays the two workloads of the
// repository benchmark that measure one server, one after the other,
// against NewHandler(NewManager(cfg)) on httptest with the sweep
// journal on. One iteration is
//   - serve-runs: two concurrent clients POST /v1/runs of
//     graph-to-star/line/512 on fresh seeds, draining /rounds and
//     /topology?format=packed to EOF; every 4th run of a client
//     resubmits one of its last 48 fresh specs, which the result cache
//     answers;
//   - then sweep-single: one 1,024-cell graph-to-star sweep over
//     {line, ring} × {24 … 256} × 64 fresh seeds, draining /cells and
//     /aggregate.
//
// The benchmark gives each workload the same wall time, so the run
// count is sized to make the two halves take about as long on two
// cores; serve_s/op and sweep_s/op report each half's wall time.
//
// It fails on a wrong output, so a profile is never taken from a
// broken run: a run that is not done, does not elect its leader or
// streams a frame too many or too few, a resubmission the cache does
// not answer, a sweep that streams a cell too many or too few, or an
// aggregate that differs from expt.AggregateSweep of the same grid.
// Regenerate the profile from the repository root with
//
//	go test ./internal/service -run '^$' -bench ServedTraffic -benchtime 20x -o "$(mktemp -d)/svc.test" -cpuprofile cmd/adnet-server/default.pgo
func BenchmarkServedTraffic(b *testing.B) {
	m := NewManager(Config{DataDir: b.TempDir()})
	srv := httptest.NewServer(NewHandler(m))
	defer func() {
		srv.Close()
		m.Close()
	}()
	clients := make([]*trafficClient, trafficClients)
	for c := range clients {
		clients[c] = &trafficClient{base: srv.URL, rng: rand.New(rand.NewPCG(uint64(c), 0)), next: 1<<40 + int64(c)<<32}
	}
	var serve, sweep time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < trafficRuns && errs[c] == nil; k++ {
					errs[c] = cl.op(k)
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := runSweep(srv.URL, trafficSweep(int64(i))); err != nil {
			b.Fatal(err)
		}
		serve, sweep = serve+t1.Sub(t0), sweep+time.Since(t1)
	}
	b.ReportMetric(serve.Seconds()/float64(b.N), "serve_s/op")
	b.ReportMetric(sweep.Seconds()/float64(b.N), "sweep_s/op")
}

// trafficSweep is iteration i's sweep grid, on seeds no other
// iteration uses.
func trafficSweep(i int64) SweepSpec {
	seeds := make([]int64, trafficSweepSeeds)
	for k := range seeds {
		seeds[k] = 1<<32 + i*trafficSweepSeeds + int64(k)
	}
	return SweepSpec{
		Algorithms: []string{expt.AlgoStar},
		Workloads:  []string{"line", "ring"},
		Sizes:      []int{24, 32, 48, 64, 96, 128, 192, 256},
		Seeds:      seeds,
	}
}

// trafficClient is one closed-loop client of BenchmarkServedTraffic.
type trafficClient struct {
	base string
	rng  *rand.Rand
	next int64   // next unused seed
	ran  []int64 // seeds of the fresh runs so far
}

// op runs the client's k-th operation: every trafficResubmit-th
// resubmits one of its last trafficWindow fresh specs, the others run
// a fresh seed.
func (c *trafficClient) op(k int) error {
	if k%trafficResubmit == trafficResubmit-1 {
		recent := c.ran[max(0, len(c.ran)-trafficWindow):]
		return c.serve(starSpec(recent[c.rng.IntN(len(recent))]), true)
	}
	seed := c.next
	c.next++
	c.ran = append(c.ran, seed)
	return c.serve(starSpec(seed), false)
}

func starSpec(seed int64) RunSpec {
	return RunSpec{Algorithm: expt.AlgoStar, Workload: "line", N: trafficStarN, Seed: seed}
}

// serve submits spec, drains its /rounds and packed /topology to EOF
// and checks them against the job's final status.
func (c *trafficClient) serve(spec RunSpec, wantCached bool) error {
	body, _ := json.Marshal(spec)
	var sub submitResponse
	if err := fetchJSON(http.MethodPost, c.base+"/v1/runs", body, &sub); err != nil {
		return err
	}
	if sub.Cached != wantCached {
		return fmt.Errorf("POST %+v: cached %v, want %v", spec, sub.Cached, wantCached)
	}
	run := c.base + "/v1/runs/" + sub.Job.ID
	rounds, err := countLines(run + "/rounds")
	if err != nil {
		return err
	}
	frames, err := countLines(run + "/topology?format=packed")
	if err != nil {
		return err
	}
	var st JobStatus
	if err := fetchJSON(http.MethodGet, run, nil, &st); err != nil {
		return err
	}
	switch {
	case st.State != StateDone || st.Outcome == nil:
		return fmt.Errorf("run %s (%+v) ended %s: %s", st.ID, spec, st.State, st.Error)
	case !st.Outcome.LeaderOK:
		return fmt.Errorf("run %s (%+v) elected no leader: %+v", st.ID, spec, *st.Outcome)
	case rounds != st.Outcome.Rounds || frames != st.Outcome.Rounds+1:
		return fmt.Errorf("run %s (%+v) of %d rounds streamed %d /rounds and %d /topology frames",
			st.ID, spec, st.Outcome.Rounds, rounds, frames)
	}
	return nil
}

// runSweep submits spec, drains its /cells and checks its /aggregate
// against expt.AggregateSweep of the same grid.
func runSweep(base string, spec SweepSpec) error {
	body, _ := json.Marshal(spec)
	var sub sweepSubmitResponse
	if err := fetchJSON(http.MethodPost, base+"/v1/sweeps", body, &sub); err != nil {
		return err
	}
	id := sub.Sweep.ID
	lines, err := countLines(base + "/v1/sweeps/" + id + "/cells")
	if err != nil {
		return err
	}
	if want := len(spec.Cells()) + 1; lines != want {
		return fmt.Errorf("sweep %s streamed %d lines, want %d cells and the summary", id, lines, want-1)
	}
	var agg sweepAggregateResponse
	if err := fetchJSON(http.MethodGet, base+"/v1/sweeps/"+id+"/aggregate", nil, &agg); err != nil {
		return err
	}
	ref, err := expt.AggregateSweep(spec)
	if err != nil {
		return err
	}
	got, _ := json.Marshal(agg.Groups)
	want, _ := json.Marshal(ref)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("sweep %s aggregate differs from expt.AggregateSweep:\n%s\nvs\n%s", id, got, want)
	}
	return nil
}

// fetchJSON sends one request and decodes a 200 or 202 body into v.
func fetchJSON(method, url string, body []byte, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s = %d: %s", method, url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// countLines GETs one NDJSON stream to EOF and counts its lines.
func countLines(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
	}
	return lines, sc.Err()
}
