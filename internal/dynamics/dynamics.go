// Package dynamics is the adversarial / passively-dynamic environment
// layer: seeded schedules that perturb the network *between* algorithm
// rounds, attached to a run through sim.WithEnvironment. The paper
// assumes the algorithm alone edits edges; the related work (Emek &
// Uitto's dynamic networks of finite state machines, Casteigts et
// al.'s temporal-graph classes) studies underlays that change under
// the algorithm — this package reproduces those regimes so the
// robustness matrix (expt.RobustnessMatrix) can measure how gracefully
// the paper's algorithms degrade.
//
// Everything here is deterministic: a schedule is a pure function of
// its spec, its seed and the History it is shown, and the engine calls
// it from the round driver only, once per round in round order, so
// runs with an environment are byte-identical from run to run like
// every other run.
package dynamics

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"adnet/internal/sim"
)

// Dynamics classes.
const (
	// ClassEdgeChurn flips Rate random underlay edges per round:
	// inactive pairs come up, active edges go down. With Preserve the
	// schedule skips any cut that would disconnect the current graph.
	ClassEdgeChurn = "edge-churn"
	// ClassTargetedCut removes, each round, the Rate active edges the
	// algorithm itself activated whose endpoint activated-degrees are
	// highest — an adversary that keeps tearing down the hub structure
	// the paper's constructions build.
	ClassTargetedCut = "targeted-cut"
	// ClassBurst alternates Quiet calm rounds with Storm rounds of
	// edge churn at Rate flips per round.
	ClassBurst = "burst"
	// ClassCrash takes Rate random nodes down for Down rounds in
	// waves; Mode selects whether restarted machines resume with state
	// intact ("sleep") or are rebuilt from the factory ("reboot").
	ClassCrash = "crash"
)

// Crash restart modes.
const (
	ModeSleep  = "sleep"
	ModeReboot = "reboot"
)

// Classes lists every dynamics class accepted by Spec.Validate.
func Classes() []string {
	return []string{ClassEdgeChurn, ClassTargetedCut, ClassBurst, ClassCrash}
}

// Spec is the JSON-facing description of one dynamics environment, the
// "dynamics" block of RunSpec/SweepSpec. The zero value of every
// optional field means "class default" (see Normalize); Seed 0 derives
// the environment seed from the run seed, so a grid over run seeds
// varies the perturbations with the workload.
type Spec struct {
	Class    string `json:"class"`
	Rate     int    `json:"rate,omitempty"`     // edits per round / crash wave size (default 1)
	Preserve bool   `json:"preserve,omitempty"` // churn/burst: never disconnect the graph
	Quiet    int    `json:"quiet,omitempty"`    // burst: calm rounds per cycle (default 8)
	Storm    int    `json:"storm,omitempty"`    // burst: churn rounds per cycle (default 4)
	Down     int    `json:"down,omitempty"`     // crash: rounds a node stays down (default 3)
	Mode     string `json:"mode,omitempty"`     // crash: "sleep" (default) or "reboot"
	Seed     int64  `json:"seed,omitempty"`     // 0: derive from the run seed
}

// Normalize returns the spec with class defaults filled in, so equal
// environments render equal keys regardless of which optional fields
// the caller spelled out.
func (s Spec) Normalize() Spec {
	if s.Rate == 0 {
		s.Rate = 1
	}
	if s.Class == ClassBurst {
		if s.Quiet == 0 {
			s.Quiet = 8
		}
		if s.Storm == 0 {
			s.Storm = 4
		}
	}
	if s.Class == ClassCrash {
		if s.Down == 0 {
			s.Down = 3
		}
		if s.Mode == "" {
			s.Mode = ModeSleep
		}
	}
	return s
}

// Validate checks the spec. Field constraints are class-aware: burst
// phases must be positive, the crash mode must be known, and Rate must
// not be negative.
func (s Spec) Validate() error {
	if !slices.Contains(Classes(), s.Class) {
		return fmt.Errorf("dynamics: unknown class %q (want one of %v)", s.Class, Classes())
	}
	n := s.Normalize()
	if n.Rate < 1 {
		return fmt.Errorf("dynamics: rate must be positive, got %d", s.Rate)
	}
	if s.Class == ClassBurst && (n.Quiet < 1 || n.Storm < 1) {
		return fmt.Errorf("dynamics: burst needs positive quiet/storm phases, got quiet=%d storm=%d", s.Quiet, s.Storm)
	}
	if s.Class == ClassCrash {
		if n.Down < 1 {
			return fmt.Errorf("dynamics: crash down-time must be positive, got %d", s.Down)
		}
		if n.Mode != ModeSleep && n.Mode != ModeReboot {
			return fmt.Errorf("dynamics: unknown crash mode %q (want %q or %q)", s.Mode, ModeSleep, ModeReboot)
		}
	} else if s.Mode != "" {
		return fmt.Errorf("dynamics: mode applies to class %q only", ClassCrash)
	}
	return nil
}

// Key renders the normalized spec canonically: every field that
// influences the perturbation sequence, and only those. expt.Cell.Key
// and expt.SweepSpec.Key append it to run and sweep keys, so caching,
// journaling and fleet dispatch distinguish dynamics variants of a run
// exactly when the executions can differ.
func (s Spec) Key() string {
	s = s.Normalize()
	var b strings.Builder
	b.WriteString(s.Class)
	b.WriteString(",k=")
	b.WriteString(strconv.Itoa(s.Rate))
	switch s.Class {
	case ClassEdgeChurn:
		fmt.Fprintf(&b, ",preserve=%t", s.Preserve)
	case ClassBurst:
		fmt.Fprintf(&b, ",preserve=%t,quiet=%d,storm=%d", s.Preserve, s.Quiet, s.Storm)
	case ClassCrash:
		fmt.Fprintf(&b, ",down=%d,mode=%s", s.Down, s.Mode)
	}
	fmt.Fprintf(&b, ",seed=%d", s.Seed)
	return b.String()
}

// New builds the environment a spec describes for a run seeded with
// runSeed: the class's schedule, holding its seed. A zero Spec.Seed
// derives the environment seed from runSeed and the class, so distinct
// seeds in a sweep grid see distinct perturbation sequences without
// extra configuration. Begin reseeds the schedule, so one environment
// may serve run after run like the engine that holds it.
func New(spec Spec, runSeed int64) (sim.Environment, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	seed := spec.Seed
	if seed == 0 {
		seed = deriveSeed(runSeed, spec.Class)
	}
	switch spec.Class {
	case ClassEdgeChurn:
		return &churnSchedule{k: spec.Rate, preserve: spec.Preserve, seed: seed}, nil
	case ClassTargetedCut:
		return &targetedCutSchedule{k: spec.Rate}, nil
	case ClassBurst:
		return &burstSchedule{
			churnSchedule: churnSchedule{k: spec.Rate, preserve: spec.Preserve, seed: seed},
			quiet:         spec.Quiet,
			storm:         spec.Storm,
		}, nil
	case ClassCrash:
		return &crashSchedule{k: spec.Rate, down: spec.Down, reboot: spec.Mode == ModeReboot, seed: seed}, nil
	}
	return nil, fmt.Errorf("dynamics: unknown class %q (want one of %v)", spec.Class, Classes())
}

// deriveSeed mixes the run seed with the class name so every (seed,
// class) cell of a grid draws an independent perturbation sequence.
func deriveSeed(runSeed int64, class string) int64 {
	h := fnv.New64a()
	h.Write([]byte(class))
	seed := runSeed ^ int64(h.Sum64())
	if seed == 0 {
		seed = 1
	}
	return seed
}
