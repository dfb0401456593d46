package sim

import (
	"errors"
	"fmt"

	"adnet/internal/graph"
)

// FailureKind names how a run went wrong, from a closed set: the
// paper's model (§2.1) admits a distance-2 violation, a message over a
// non-edge, a network that stops being connected and no termination;
// the harness adds a machine that panicked under an environment, an
// environment edit the History refused, a canceled run and a finished
// run that fails its verdict.
type FailureKind string

// The failure kinds, and what Round, Node, Peer, Detail and Err hold
// for each.
const (
	RoundLimit FailureKind = "round_limit" // Round: the limit
	// ModelViolation is an algorithm's edit the History refused, Err
	// its *temporal.Violation (Node, Peer: the edge); a self-loop
	// intent, which the Context refuses first, has no Err and Detail
	// names it.
	ModelViolation  FailureKind = "model_violation"
	NonNeighborSend FailureKind = "non_neighbor_send" // Node sent to Peer, no neighbour in E(Round)
	// MachinePanic is Node's machine panicking under an environment,
	// Detail the panic value, or a reboot whose factory built no
	// machine, Err errNilMachine.
	MachinePanic FailureKind = "machine_panic"
	// EnvironmentRefused is an environment's edit the History refused,
	// Err its error: the environment is not bound by the model's rules,
	// so this is a fault of the environment, not of the algorithm.
	EnvironmentRefused FailureKind = "environment_refused"
	Disconnected       FailureKind = "disconnected" // E(Round+1) failed the connectivity check
	Canceled           FailureKind = "canceled"     // after Round rounds; unwraps to ErrCanceled
	Unverified         FailureKind = "unverified"   // finished after Round rounds; Detail: the verdict (expt's judge)
)

// ErrCanceled is what a Canceled failure unwraps to, and what
// sweep-level skips wrap.
var ErrCanceled = errors.New("sim: execution canceled")

// errNilMachine is the cause of a MachinePanic whose reboot built no
// machine.
var errNilMachine = errors.New("sim: factory returned nil machine")

// Failure is a run failure as a value: a failed run returns one
// (reachable with errors.As) beside its partial Result. Node and Peer
// name the nodes a kind involves and are zero for kinds that involve
// none.
type Failure struct {
	Kind   FailureKind
	Round  int
	Node   graph.ID
	Peer   graph.ID
	Detail string
	// Err is the failure's cause, if it has one; Unwrap returns it.
	Err error
}

// Error renders the failure's text.
func (f *Failure) Error() string {
	switch f.Kind {
	case RoundLimit:
		return fmt.Sprintf("sim: round limit exceeded before termination (limit %d)", f.Round)
	case Disconnected:
		return fmt.Sprintf("sim: active graph disconnected after round %d", f.Round)
	case Canceled:
		return fmt.Sprintf("%v after round %d", ErrCanceled, f.Round)
	case NonNeighborSend:
		return fmt.Sprintf("sim: round %d: node %d sent to non-neighbor %d", f.Round, f.Node, f.Peer)
	case MachinePanic:
		if f.Err == errNilMachine {
			return fmt.Sprintf("sim: round %d: factory returned nil machine rebooting node %d", f.Round, f.Node)
		}
		return fmt.Sprintf("sim: round %d: node %d panicked under environment perturbation: %s", f.Round, f.Node, f.Detail)
	case Unverified:
		return "unverified: " + f.Detail
	}
	if f.Err != nil {
		return f.Err.Error()
	}
	return fmt.Sprintf("sim: node %d %s", f.Node, f.Detail)
}

// Unwrap returns ErrCanceled for a canceled run and the cause, if any,
// otherwise.
func (f *Failure) Unwrap() error {
	if f.Kind == Canceled {
		return ErrCanceled
	}
	return f.Err
}
