// Package core implements the paper's three main algorithms —
// GraphToStar (§3), GraphToWreath (§4) and GraphToThinWreath (§5) —
// as node programs for the synchronous engine in internal/sim.
//
// All three share the committee discipline of §2.4: the nodes are
// always partitioned into committees, each internally organized as the
// algorithm's gadget network (star / wreath / thin wreath) with the
// maximum-UID member as leader; committees compete, the greater UID
// wins, and the unique survivor is the committee of u_max, at which
// point u_max is the elected leader and the gadget is (or quickly
// becomes) the target network.
package core

import "adnet/internal/graph"

// Role distinguishes committee leaders from followers.
type Role uint8

// Roles. Every node starts as the leader of its own singleton committee.
const (
	RoleLeader Role = iota + 1
	RoleFollower
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RoleLeader {
		return "leader"
	}
	return "follower"
}

// Mode is the committee mode of the GraphToStar phase machine (§3).
type Mode uint8

// GraphToStar committee modes, §3. Selection and Waiting committees
// are selectable; Merging, Pulling and Termination are not.
const (
	ModeSelection Mode = iota + 1
	ModeMerging
	ModePulling
	ModeWaiting
	ModeTermination
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSelection:
		return "selection"
	case ModeMerging:
		return "merging"
	case ModePulling:
		return "pulling"
	case ModeWaiting:
		return "waiting"
	case ModeTermination:
		return "termination"
	default:
		return "invalid"
	}
}

// selectable reports whether a committee announcing this mode may be
// chosen as a selection target. The paper excludes pulling committees;
// we additionally exclude merging (dying) committees, which is
// strictly safer and leaves the growth argument intact.
func (m Mode) selectable() bool { return m == ModeSelection || m == ModeWaiting }

// Announce is the phase-start broadcast over original edges: the
// sender's committee identity and mode. Original edges persist until
// termination, so committee neighborhood discovery runs on them.
type Announce struct {
	Leader graph.ID
	Mode   Mode
}
