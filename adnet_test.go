package adnet

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/expt"
	"adnet/internal/service"
	"adnet/internal/sim"
	"adnet/internal/tasks"
	"adnet/internal/temporal"
)

func TestRunGraphToStarPublicAPI(t *testing.T) {
	t.Parallel()
	g := Line(100)
	res, err := Run(GraphToStar, g, WithConnectivityCheck())
	if err != nil {
		t.Fatal(err)
	}
	if !res.LeaderElected || res.Leader != 99 {
		t.Fatalf("leader = %d (%v), want 99", res.Leader, res.LeaderElected)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	if !res.FinalGraph().IsStarCentered(99) {
		t.Fatal("final graph is not a spanning star")
	}
	if err := core.StarBound(100).Check(tasks.Cost(res.Metrics)); err != nil {
		t.Fatal(err)
	}
	if len(res.PerRound()) != res.Rounds {
		t.Fatalf("per-round records %d != rounds %d", len(res.PerRound()), res.Rounds)
	}
}

func TestRunGraphToWreathPublicAPI(t *testing.T) {
	t.Parallel()
	g, err := RandomBoundedDegree(80, 4, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(GraphToWreath, g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.LeaderElected {
		t.Fatal("no leader")
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRunThinWreathPublicAPI(t *testing.T) {
	t.Parallel()
	res, err := Run(GraphToThinWreath, Ring(48))
	if err != nil {
		t.Fatal(err)
	}
	if !res.LeaderElected || res.Leader != 47 {
		t.Fatalf("leader = %d", res.Leader)
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	t.Parallel()
	res, err := Run(CliqueFormation, Line(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalActivations != 20*19/2-19 {
		t.Fatalf("clique activations %d", res.Metrics.TotalActivations)
	}
	flood, err := Run(Flooding, Line(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.FloodBound(20).Check(tasks.Cost(flood.Metrics)); err != nil {
		t.Fatal(err)
	}
	if flood.Rounds <= res.Rounds {
		t.Fatal("flooding should be slower than clique formation on a line")
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	t.Parallel()
	_, err := Run(Algorithm(99), Line(4))
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, want := range []string{"Algorithm(99)", "want one of", "GraphToStar", "Flooding"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunRejectsNilGraph: a nil initial graph is an input error at both
// doors, not a nil dereference.
func TestRunRejectsNilGraph(t *testing.T) {
	t.Parallel()
	if _, err := Run(GraphToStar, nil); err == nil {
		t.Error("adnet.Run accepted a nil graph")
	}
	_, err := sim.Run(nil, func(ID, sim.Env) sim.Machine { return nil })
	if err == nil || !strings.Contains(err.Error(), "empty initial graph") {
		t.Errorf("sim.Run(nil) = %v, want the empty-graph error", err)
	}
}

// TestRunReturnsThePartialResult: a run that fails hands back what it
// reached beside its *Failure, as sim.Run does.
func TestRunReturnsThePartialResult(t *testing.T) {
	t.Parallel()
	res, err := Run(GraphToStar, Line(32), WithMaxRounds(5))
	var f *Failure
	if !errors.As(err, &f) || f.Kind != sim.RoundLimit || f.Round != 5 {
		t.Fatalf("err = %v, want a round-limit failure at round 5", err)
	}
	if res == nil || res.Rounds != 5 || len(res.PerRound()) != 5 || res.Metrics.Rounds != 5 {
		t.Fatalf("partial result %+v, want the 5 rounds the run reached", res)
	}
}

// downForever is an environment that takes node 0 down after round 1
// and never restarts it: the run can only end at its round cap, which
// the engine's error then names.
type downForever struct{}

func (downForever) Begin(int) {}
func (downForever) Perturb(round int, _ *temporal.History, edits *sim.EnvEdits) {
	if round == 1 {
		edits.Crash = append(edits.Crash, 0)
	}
}

// TestAlgorithmRegistry walks the expt registry through every door
// that reads it: expt.Execute, Cell.Validate, GET /v1/algorithms and
// adnet.Run must all see the same entries with the same defaults.
func TestAlgorithmRegistry(t *testing.T) {
	t.Parallel()
	mgr := service.NewManager(service.Config{Workers: 1})
	srv := httptest.NewServer(service.NewHandler(mgr))
	defer func() {
		srv.Close()
		mgr.Close()
	}()
	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	var served []string
	err = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(served, expt.Algorithms()) {
		t.Fatalf("GET /v1/algorithms = %v, want the registry order %v", served, expt.Algorithms())
	}

	// The public enum must reach every simulated entry, and only those.
	public := map[string]Algorithm{}
	for a := GraphToStar; a.known(); a++ {
		public[algorithms[a].registry] = a
	}
	roundCap := regexp.MustCompile(`\(limit (\d+)\)`)
	const n = 16
	for _, name := range expt.Algorithms() {
		t.Run(name, func(t *testing.T) {
			cell := expt.Cell{Algorithm: name, Workload: "line", N: n, Seed: 1}
			if err := cell.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			out, err := expt.Execute(cell.Request())
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if !out.LeaderOK || out.N != n {
				t.Fatalf("Execute outcome %+v: wrong leader", out)
			}
			algo, reachable := public[name]
			if reachable != expt.Simulated(name) {
				t.Fatalf("reachable from adnet.Run: %v, simulated: %v", reachable, expt.Simulated(name))
			}
			if !reachable {
				return
			}
			res, err := Run(algo, Line(n))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.LeaderElected || res.Leader != n-1 || res.Rounds != out.Rounds {
				t.Fatalf("Run: leader %d (%v) in %d rounds, Execute took %d", res.Leader, res.LeaderElected, res.Rounds, out.Rounds)
			}

			// Same default round cap from both entry points: stall the
			// run and read the cap off the engine's error.
			_, runErr := Run(algo, Line(n), sim.WithEnvironment(downForever{}))
			req := cell.Request()
			req.SimOpts = append(req.SimOpts, sim.WithEnvironment(downForever{}))
			_, execErr := expt.Execute(req)
			var fromRunF, fromExecF *sim.Failure
			if !errors.As(runErr, &fromRunF) || !errors.As(execErr, &fromExecF) || fromRunF.Kind != sim.RoundLimit || fromExecF.Kind != sim.RoundLimit {
				t.Fatalf("stalled runs ended with %v / %v, want the round limit", runErr, execErr)
			}
			fromRun, fromExec := roundCap.FindStringSubmatch(runErr.Error()), roundCap.FindStringSubmatch(execErr.Error())
			if fromRun == nil || fromExec == nil || fromRun[1] != fromExec[1] {
				t.Fatalf("round caps differ: adnet.Run %q, expt.Execute %q", runErr, execErr)
			}
			engineDefault := strconv.Itoa(64*n + 64)
			if wreath := name == expt.AlgoWreath || name == expt.AlgoThinWreath; wreath == (fromRun[1] == engineDefault) {
				t.Fatalf("round cap %s (engine default %s): only the wreath entries set their own", fromRun[1], engineDefault)
			}
		})
	}
}

func TestAlgorithmString(t *testing.T) {
	t.Parallel()
	for algo, want := range map[Algorithm]string{
		GraphToStar: "GraphToStar", GraphToWreath: "GraphToWreath",
		GraphToThinWreath: "GraphToThinWreath", CliqueFormation: "CliqueFormation",
		Flooding: "Flooding", Algorithm(42): "Algorithm(42)",
	} {
		if algo.String() != want {
			t.Errorf("%d.String() = %q, want %q", algo, algo.String(), want)
		}
	}
}

func TestTradeoffRenders(t *testing.T) {
	t.Parallel()
	out, err := Tradeoff(48)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graph-to-star", "clique", "centralized-euler"} {
		if !strings.Contains(out, want) {
			t.Errorf("tradeoff table missing %q", want)
		}
	}
}

func TestRandomConnectedHelper(t *testing.T) {
	t.Parallel()
	g := RandomConnected(40, 20, 3)
	if !g.IsConnected() || g.NumNodes() != 40 {
		t.Fatal("bad random graph")
	}
}
