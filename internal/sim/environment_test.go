package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// scriptEnv replays a fixed per-round script of environment edits;
// begin, when set, runs at every Begin (a seeded script reseeds there).
type scriptEnv struct {
	steps map[int]func(edits *EnvEdits)
	begin func()
}

func (s *scriptEnv) Begin(n int) {
	if s.begin != nil {
		s.begin()
	}
}

func (s *scriptEnv) Perturb(round int, hist *temporal.History, edits *EnvEdits) {
	if f, ok := s.steps[round]; ok {
		f(edits)
	}
}

// pingMachine: node 0 sends a ping to node 1 every round; node 1
// counts what arrives. Everyone halts after the given round.
type pingMachine struct {
	got    int
	rounds int
}

func (m *pingMachine) Init(*Context) {}

func (m *pingMachine) Send(ctx *Context) {
	if ctx.ID() == 0 {
		ctx.Send(1, "ping")
	}
}

func (m *pingMachine) Receive(ctx *Context, inbox []Message) {
	m.got += len(inbox)
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

func TestEnvironmentCutLosesMessages(t *testing.T) {
	t.Parallel()
	machines := map[graph.ID]*pingMachine{}
	factory := func(id graph.ID, env Env) Machine {
		m := &pingMachine{rounds: 5}
		machines[id] = m
		return m
	}
	env := &scriptEnv{steps: map[int]func(*EnvEdits){
		2: func(e *EnvEdits) { e.Deactivate = append(e.Deactivate, graph.NewEdge(0, 1)) },
	}}
	res, err := Run(graph.Ring(3), factory, WithEnvironment(env))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The cut commits after round 2, so pings land in rounds 1-2 and
	// are silently lost (not a run error) in rounds 3-5.
	if machines[1].got != 2 {
		t.Fatalf("node 1 received %d pings, want 2", machines[1].got)
	}
	if res.Metrics.EnvDeactivations != 1 {
		t.Fatalf("EnvDeactivations = %d, want 1", res.Metrics.EnvDeactivations)
	}
}

// degreeProbe records the node's degree at the start of each Send
// phase.
type degreeProbe struct {
	degrees []int
	rounds  int
}

func (m *degreeProbe) Init(*Context) {}

func (m *degreeProbe) Send(ctx *Context) { m.degrees = append(m.degrees, ctx.Degree()) }

func (m *degreeProbe) Receive(ctx *Context, inbox []Message) {
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

func TestEnvironmentActivationVisibleNextRound(t *testing.T) {
	t.Parallel()
	machines := map[graph.ID]*degreeProbe{}
	factory := func(id graph.ID, env Env) Machine {
		m := &degreeProbe{rounds: 3}
		machines[id] = m
		return m
	}
	env := &scriptEnv{steps: map[int]func(*EnvEdits){
		1: func(e *EnvEdits) { e.Activate = append(e.Activate, graph.NewEdge(0, 2)) },
	}}
	res, err := Run(graph.Line(3), factory, WithEnvironment(env))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Node 0 starts with degree 1; the env edge {0,2} commits after
	// round 1 and is visible from round 2's Send phase on.
	want := []int{1, 2, 2}
	for i, w := range want {
		if machines[0].degrees[i] != w {
			t.Fatalf("node 0 degrees = %v, want %v", machines[0].degrees, want)
		}
	}
	if res.Metrics.EnvActivations != 1 {
		t.Fatalf("EnvActivations = %d, want 1", res.Metrics.EnvActivations)
	}
}

// chattyCounter broadcasts every round and counts receipts; inits
// counts how many times Init ran (distinguishes sleep from reboot).
type chattyCounter struct {
	got    int
	inits  int
	rounds int
}

func (m *chattyCounter) Init(*Context) { m.inits++ }

func (m *chattyCounter) Send(ctx *Context) { ctx.Broadcast(1) }

func (m *chattyCounter) Receive(ctx *Context, inbox []Message) {
	m.got += len(inbox)
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

func runCrashRestart(t *testing.T, reboot bool) map[graph.ID]*chattyCounter {
	t.Helper()
	machines := map[graph.ID]*chattyCounter{}
	factory := func(id graph.ID, env Env) Machine {
		m := &chattyCounter{rounds: 8}
		machines[id] = m
		return m
	}
	env := &scriptEnv{steps: map[int]func(*EnvEdits){
		2: func(e *EnvEdits) { e.Crash = append(e.Crash, 2) },
		4: func(e *EnvEdits) {
			e.Restart = append(e.Restart, 2)
			e.Reboot = reboot
		},
	}}
	if _, err := Run(graph.Ring(3), factory, WithEnvironment(env)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return machines
}

func TestEnvironmentCrashSilencesNode(t *testing.T) {
	t.Parallel()
	machines := runCrashRestart(t, false)
	// Node 2 is down for rounds 3-4: it neither sends nor receives, and
	// messages addressed to it are dropped. Up rounds 1,2,5,6,7,8 give
	// it 2 messages each.
	if machines[2].got != 12 {
		t.Fatalf("crashed node received %d, want 12", machines[2].got)
	}
	// Node 0 hears node 1 all 8 rounds and node 2 only in its 6 up
	// rounds.
	if machines[0].got != 14 {
		t.Fatalf("node 0 received %d, want 14", machines[0].got)
	}
}

func TestEnvironmentSleepPreservesState(t *testing.T) {
	t.Parallel()
	machines := runCrashRestart(t, false)
	// Sleep restart: same machine resumes, Init ran once.
	if machines[2].inits != 1 {
		t.Fatalf("sleep restart: inits = %d, want 1", machines[2].inits)
	}
	if machines[2].got == 0 {
		t.Fatalf("sleep restart: pre-crash state lost")
	}
}

func TestEnvironmentRebootResetsState(t *testing.T) {
	t.Parallel()
	machines := runCrashRestart(t, true)
	// Reboot restart: the factory built a fresh machine for slot 2, so
	// the map entry was overwritten by the reboot-time instance, which
	// only saw rounds 5-8 (2 messages each) and one Init.
	if machines[2].inits != 1 || machines[2].got != 8 {
		t.Fatalf("reboot restart: inits = %d got = %d, want 1 and 8", machines[2].inits, machines[2].got)
	}
}

// TestEnvironmentFaultCounts holds the engine to counting exactly the
// crashes and restarts it applies: not a crash of a down or
// out-of-range slot, not a restart of an up one, in either restart
// mode; a round-limit failure's partial Result carries the counts;
// and one seeded environment reused for two runs perturbs both alike.
func TestEnvironmentFaultCounts(t *testing.T) {
	t.Parallel()
	script := func(reboot bool) *scriptEnv {
		return &scriptEnv{steps: map[int]func(*EnvEdits){
			// Slot 1 crashes once; the repeat, 9 and -1 are ignored, and
			// so is the restart of slot 2, which is up.
			1: func(e *EnvEdits) {
				e.Crash = append(e.Crash, 1, 1, 9, -1)
				e.Restart = append(e.Restart, 2)
			},
			2: func(e *EnvEdits) { e.Crash = append(e.Crash, 1) }, // already down
			3: func(e *EnvEdits) {
				e.Restart, e.Reboot = append(e.Restart, 1, 1, 7, -2), reboot
			},
			4: func(e *EnvEdits) {
				e.Restart = append(e.Restart, 0) // up
				e.Crash = append(e.Crash, 3)
			},
			5: func(e *EnvEdits) { e.Restart, e.Reboot = append(e.Restart, 3), reboot },
		}}
	}
	for _, reboot := range []bool{false, true} {
		builds := 0
		factory := func(id graph.ID, env Env) Machine {
			builds++
			return &chattyCounter{rounds: 8}
		}
		res, err := Run(graph.Ring(4), factory, WithEnvironment(script(reboot)))
		if err != nil {
			t.Fatalf("reboot=%t: Run: %v", reboot, err)
		}
		if res.Crashes != 2 || res.Restarts != 2 {
			t.Errorf("reboot=%t: counted %d/%d crashes/restarts, want 2/2", reboot, res.Crashes, res.Restarts)
		}
		want := 4
		if reboot {
			want += 2 // only the two applied restarts rebuild a machine
		}
		if builds != want {
			t.Errorf("reboot=%t: factory built %d machines, want %d", reboot, builds, want)
		}

		// Halting is due at round 8; a limit of 3 fails the run after
		// slot 1's crash and restart.
		res, err = Run(graph.Ring(4), factory, WithEnvironment(script(reboot)), WithMaxRounds(3))
		if kindOf(err) != RoundLimit || res == nil {
			t.Fatalf("reboot=%t: want a partial result and a round-limit failure, got %v, %v", reboot, res, err)
		}
		if res.Crashes != 1 || res.Restarts != 1 {
			t.Errorf("reboot=%t: partial result counted %d/%d, want 1/1", reboot, res.Crashes, res.Restarts)
		}
	}

	// A seeded script of random faults (junk slots included) and edge
	// activations, with a model of which slots are down: Begin reseeds
	// both, so two runs of one value on one engine must match delta for
	// delta and count for count, and the counts must match the model.
	const n = 8
	var (
		rng   *rand.Rand
		down  [n]bool
		model [2]int // crashes, restarts
	)
	env := &scriptEnv{steps: map[int]func(*EnvEdits){}, begin: func() {
		rng = rand.New(rand.NewSource(5))
		down, model = [n]bool{}, [2]int{}
	}}
	for r := 1; r <= 24; r++ {
		env.steps[r] = func(e *EnvEdits) {
			for k := rng.Intn(3); k > 0 && r < 24; k-- {
				e.Crash = append(e.Crash, int32(rng.Intn(n+2)-1))
				e.Restart = append(e.Restart, int32(rng.Intn(n+2)-1))
			}
			if r == 24 { // everyone up again, so the run halts at 30
				for s := range int32(n) {
					e.Restart = append(e.Restart, s)
				}
			}
			u := rng.Intn(n)
			e.Activate = append(e.Activate, graph.NewEdge(graph.ID(u), graph.ID((u+1+rng.Intn(n-1))%n)))
			e.Reboot = rng.Intn(2) == 0
			// The model applies the edits as the engine does: restarts
			// first, then crashes.
			for _, s := range e.Restart {
				if s >= 0 && s < n && down[s] {
					down[s] = false
					model[1]++
				}
			}
			for _, s := range e.Crash {
				if s >= 0 && s < n && !down[s] {
					down[s] = true
					model[0]++
				}
			}
		}
	}
	eng := NewEngine()
	defer eng.Close()
	run := func() (string, [2]int) {
		var deltas strings.Builder
		factory := func(id graph.ID, _ Env) Machine { return &chattyCounter{rounds: 30} }
		err := eng.Reset(graph.Ring(n), factory, WithEnvironment(env),
			WithDeltaHook(func(d temporal.RoundDelta) {
				fmt.Fprintf(&deltas, "r%d %v %v\n", d.Round, d.EnvActivate, d.EnvDeactivate)
			}))
		if err != nil {
			t.Fatalf("Reset: %v", err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		got := [2]int{res.Crashes, res.Restarts}
		if got != model {
			t.Errorf("counted %v crashes/restarts, model %v", got, model)
		}
		if got[0] == 0 || got[1] == 0 {
			t.Errorf("script applied no fault of some kind: %v", got)
		}
		return deltas.String(), got
	}
	firstDeltas, firstCounts := run()
	secondDeltas, secondCounts := run()
	if firstDeltas != secondDeltas || firstCounts != secondCounts {
		t.Fatalf("reused environment diverged: counts %v vs %v\n%s\nvs\n%s",
			firstCounts, secondCounts, firstDeltas, secondDeltas)
	}
}

// panicMachine panics in Send at the trigger round.
type panicMachine struct {
	trigger int
	rounds  int
}

func (m *panicMachine) Init(*Context) {}

func (m *panicMachine) Send(ctx *Context) {
	if ctx.ID() == 1 && ctx.Round() == m.trigger {
		panic("invariant broken")
	}
}

func (m *panicMachine) Receive(ctx *Context, inbox []Message) {
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

func TestEnvironmentContainsMachinePanic(t *testing.T) {
	t.Parallel()
	factory := func(id graph.ID, env Env) Machine {
		return &panicMachine{trigger: 3, rounds: 6}
	}
	env := &scriptEnv{steps: map[int]func(*EnvEdits){}}
	res, err := Run(graph.Ring(3), factory, WithEnvironment(env))
	if err == nil || !strings.Contains(err.Error(), "panicked under environment perturbation") {
		t.Fatalf("panic not converted to run error: %v", err)
	}
	if res == nil {
		t.Fatalf("result must remain usable on contained panic")
	}
	// Without an environment the strict path stays defer-free and the
	// panic propagates — the model contract, not a robustness run.
	defer func() {
		if recover() == nil {
			t.Fatalf("strict run should propagate machine panics")
		}
	}()
	Run(graph.Ring(3), factory) //nolint:errcheck // panics before returning
}
