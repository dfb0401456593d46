package dynamics

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

func TestSpecValidate(t *testing.T) {
	t.Parallel()
	good := []Spec{
		{Class: ClassEdgeChurn},
		{Class: ClassEdgeChurn, Rate: 3, Preserve: true},
		{Class: ClassTargetedCut, Rate: 2},
		{Class: ClassBurst, Quiet: 2, Storm: 5},
		{Class: ClassCrash, Down: 1, Mode: ModeReboot},
		{Class: ClassCrash},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []struct {
		spec Spec
		frag string
	}{
		{Spec{}, "unknown class"},
		{Spec{Class: "meteor"}, "unknown class"},
		{Spec{Class: ClassEdgeChurn, Rate: -1}, "rate must be positive"},
		{Spec{Class: ClassBurst, Quiet: -3}, "positive quiet/storm"},
		{Spec{Class: ClassCrash, Mode: "hibernate"}, "unknown crash mode"},
		{Spec{Class: ClassCrash, Down: -1}, "down-time must be positive"},
		{Spec{Class: ClassEdgeChurn, Mode: ModeSleep}, "mode applies"},
	}
	for _, tc := range bad {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("Validate(%+v) = %v, want %q", tc.spec, err, tc.frag)
		}
	}
}

func TestSpecKeyCanonical(t *testing.T) {
	t.Parallel()
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Class: ClassEdgeChurn}, "edge-churn,k=1,preserve=false,seed=0"},
		{Spec{Class: ClassTargetedCut, Rate: 2}, "targeted-cut,k=2,seed=0"},
		{Spec{Class: ClassBurst}, "burst,k=1,preserve=false,quiet=8,storm=4,seed=0"},
		{Spec{Class: ClassCrash, Seed: 9}, "crash,k=1,down=3,mode=sleep,seed=9"},
	}
	for _, tc := range cases {
		if got := tc.spec.Key(); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.spec, got, tc.want)
		}
	}
	// Spelling out a default must render the same key as omitting it.
	if a, b := (Spec{Class: ClassBurst, Rate: 1, Quiet: 8}).Key(), (Spec{Class: ClassBurst}).Key(); a != b {
		t.Errorf("normalized keys differ: %q vs %q", a, b)
	}
}

func TestNewScheduleUnknownClass(t *testing.T) {
	t.Parallel()
	if _, err := New(Spec{Class: "meteor"}, 1); err == nil {
		t.Fatalf("New accepted unknown class")
	}
	for _, class := range Classes() {
		if _, err := New(Spec{Class: class}, 1); err != nil {
			t.Fatalf("New(%q): %v", class, err)
		}
	}
}

// expandMachine activates edges to unseen distance-2 nodes (a small
// clique-former), giving targeted-cut schedules activated edges to
// rank. It halts at a fixed round so perturbed runs still terminate.
type expandMachine struct{ rounds int }

func (m *expandMachine) Init(*sim.Context) {}

func (m *expandMachine) Send(ctx *sim.Context) {
	ctx.Broadcast(append([]graph.ID(nil), ctx.Neighbors()...))
}

func (m *expandMachine) Receive(ctx *sim.Context, inbox []sim.Message) {
	seen := map[graph.ID]bool{ctx.ID(): true}
	for _, v := range ctx.Neighbors() {
		seen[v] = true
	}
	for _, msg := range inbox {
		for _, w := range msg.Payload.([]graph.ID) {
			if !seen[w] {
				seen[w] = true
				ctx.Activate(w)
			}
		}
	}
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

// envFingerprint runs the machine under a fresh environment for spec
// and returns a deterministic rendering of the full execution: final
// metrics, the engine's fault counts, plus every round's delta — the
// algorithm's and the environment's committed edits, all four lists.
func envFingerprint(t *testing.T, g *graph.Graph, spec Spec) string {
	t.Helper()
	env, err := New(spec, 7)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	factory := func(id graph.ID, _ sim.Env) sim.Machine { return &expandMachine{rounds: 24} }
	var rounds strings.Builder
	res, err := sim.Run(g, factory,
		sim.WithEnvironment(env),
		sim.WithDeltaHook(func(d temporal.RoundDelta) {
			fmt.Fprintf(&rounds, "r%d alg %v %v env %v %v\n",
				d.Round, d.Activate, d.Deactivate, d.EnvActivate, d.EnvDeactivate)
		}),
		sim.WithMaxRounds(200))
	if err != nil {
		t.Fatalf("Run(%+v): %v", spec, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrics=%+v\n", res.Metrics)
	fmt.Fprintf(&b, "faults=%d/%d\n", res.Crashes, res.Restarts)
	b.WriteString(rounds.String())
	return b.String()
}

// TestSchedulesDeterministicAcrossParallelism runs every schedule twice
// on fresh engines and requires identical fingerprints, then checks that
// a sparse-ID relabelling reads exactly like the dense line. (The name
// predates the one-goroutine engine.)
func TestSchedulesDeterministicAcrossParallelism(t *testing.T) {
	t.Parallel()
	specs := []Spec{
		{Class: ClassEdgeChurn, Rate: 2},
		{Class: ClassEdgeChurn, Rate: 2, Preserve: true},
		{Class: ClassTargetedCut, Rate: 2},
		{Class: ClassBurst, Quiet: 3, Storm: 2},
		{Class: ClassCrash, Rate: 2, Down: 2},
		{Class: ClassCrash, Rate: 1, Down: 1, Mode: ModeReboot},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Key(), func(t *testing.T) {
			t.Parallel()
			want := envFingerprint(t, graph.Grid(4, 6), spec)
			if got := envFingerprint(t, graph.Grid(4, 6), spec); got != want {
				t.Fatalf("second run diverged from the first:\n%s\nvs\n%s", got, want)
			}
		})
		// Node IDs that are not 0..n-1: the schedules pick nodes by
		// rank, and the deltas carry ranks, so a line relabelled
		// u -> 3u+7 must run — churn used to propose edits to IDs that
		// are not nodes — and read exactly like the line itself.
		t.Run("sparse-ids/"+spec.Key(), func(t *testing.T) {
			t.Parallel()
			sparse := graph.New()
			for u := graph.ID(0); u < 23; u++ {
				sparse.MustAddEdge(3*u+7, 3*(u+1)+7)
			}
			want := envFingerprint(t, graph.Line(24), spec)
			if got := envFingerprint(t, sparse, spec); got != want {
				t.Fatalf("sparse IDs diverged from the dense line:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

func TestChurnPreserveKeepsConnectivity(t *testing.T) {
	t.Parallel()
	// A tree is maximally fragile: any unguarded cut disconnects it.
	// With Preserve on, the engine-level connectivity check must never
	// fire — the run fails on the round limit instead (the passive
	// machine never halts), or completes.
	env, err := New(Spec{Class: ClassEdgeChurn, Rate: 3, Preserve: true}, 5)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	factory := func(id graph.ID, _ sim.Env) sim.Machine { return &expandMachine{rounds: 40} }
	_, err = sim.Run(graph.CompleteBinaryTree(31), factory,
		sim.WithEnvironment(env),
		sim.WithConnectivityCheck(),
		sim.WithMaxRounds(60))
	if f := (*sim.Failure)(nil); errors.As(err, &f) && f.Kind == sim.Disconnected {
		t.Fatalf("preserve=true disconnected the graph: %v", err)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEnvCountsMatchMetrics(t *testing.T) {
	t.Parallel()
	env, err := New(Spec{Class: ClassCrash, Rate: 2, Down: 2}, 3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	factory := func(id graph.ID, _ sim.Env) sim.Machine { return &expandMachine{rounds: 30} }
	res, err := sim.Run(graph.Ring(12), factory,
		sim.WithEnvironment(env),
		sim.WithMaxRounds(100))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Crashes == 0 {
		t.Fatalf("crash schedule injected no crashes over 30 rounds")
	}
	if res.Restarts > res.Crashes {
		t.Fatalf("restarts %d > crashes %d", res.Restarts, res.Crashes)
	}
	if res.Metrics.Rounds == 0 {
		t.Fatalf("no rounds recorded")
	}
}
