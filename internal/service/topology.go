package service

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"adnet/internal/temporal"
)

// TopologyFrame is one NDJSON line of the GET /v1/runs/{id}/topology
// stream: the compact per-round reconfiguration delta a subscriber
// replays to reconstruct D(i) without the server ever materializing
// full adjacency per subscriber.
//
// The first frame is the header (Round 0): the node count and the
// initial active edge set E(1). Every following frame carries round
// i's committed activations and deactivations. Edge lists are flat
// slot pairs [a0,b0,a1,b1,...] in ascending canonical edge order,
// where a slot is a node's ascending-ID rank — the engine applies
// reconfiguration deterministically in exactly this order, so the
// deltas are a complete, canonical wire format for the dynamic graph.
type TopologyFrame struct {
	Round int `json:"round"`
	// Header fields (Round 0 only).
	N     int     `json:"n,omitempty"`
	Edges []int32 `json:"edges,omitempty"`
	// Delta fields (Round >= 1).
	Activate   []int32 `json:"activate,omitempty"`
	Deactivate []int32 `json:"deactivate,omitempty"`
	// Environment delta fields: edits the dynamics environment (not
	// the algorithm) committed after the round's own reconfiguration.
	// Always empty — and absent from the wire — for runs without a
	// dynamics spec, so those streams are byte-identical to the
	// pre-dynamics format.
	EnvActivate   []int32 `json:"env_activate,omitempty"`
	EnvDeactivate []int32 `json:"env_deactivate,omitempty"`
}

// packedTopologyFrame is the format=packed rendering of the same
// frame: the slot pairs are delta-varint packed (see packPairs) and
// base64'd into a single string field, cutting frame bytes by 3-6x on
// dense rounds while staying one JSON line per round.
type packedTopologyFrame struct {
	Round int    `json:"round"`
	N     int    `json:"n,omitempty"`
	P     string `json:"p"`
}

// packedFrame renders f in the packed topology format. The header
// packs its initial edge list; delta frames pack activations
// then deactivations (each length-prefixed), and — only when a
// dynamics environment edited anything this round — the environment's
// activations and deactivations as a third and fourth list. Decoders
// detect the extension by the remaining bytes, and dynamics-free
// streams stay byte-identical to the two-list format.
func packedFrame(f TopologyFrame) packedTopologyFrame {
	var buf []byte
	if f.Round == 0 {
		buf = packPairs(nil, f.Edges)
	} else {
		buf = packPairs(nil, f.Activate)
		buf = packPairs(buf, f.Deactivate)
		if len(f.EnvActivate) > 0 || len(f.EnvDeactivate) > 0 {
			buf = packPairs(buf, f.EnvActivate)
			buf = packPairs(buf, f.EnvDeactivate)
		}
	}
	return packedTopologyFrame{
		Round: f.Round,
		N:     f.N,
		P:     base64.StdEncoding.EncodeToString(buf),
	}
}

// packPairs appends one length-prefixed, delta-varint packed edge
// list to buf: uvarint(#pairs), then per pair uvarint(a_i - a_{i-1})
// (the first slots are ascending in canonical order, so consecutive
// deltas are small) followed by uvarint(b_i - a_i) (b > a for
// canonical pairs). pairs is flat [a0,b0,a1,b1,...].
func packPairs(buf []byte, pairs []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pairs)/2))
	prevA := int32(0)
	for i := 0; i+1 < len(pairs); i += 2 {
		a, b := pairs[i], pairs[i+1]
		buf = binary.AppendUvarint(buf, uint64(a-prevA))
		buf = binary.AppendUvarint(buf, uint64(b-a))
		prevA = a
	}
	return buf
}

// unpackPairs reads one packed edge list from buf, returning the flat
// slot pairs and the remaining bytes. It is the inverse of packPairs;
// the topology differential tests replay packed streams through it.
func unpackPairs(buf []byte) ([]int32, []byte, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, fmt.Errorf("service: packed frame: bad pair count")
	}
	buf = buf[n:]
	pairs := make([]int32, 0, 2*count)
	prevA := int32(0)
	for i := uint64(0); i < count; i++ {
		da, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, nil, fmt.Errorf("service: packed frame: truncated pair %d", i)
		}
		buf = buf[n:]
		db, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, nil, fmt.Errorf("service: packed frame: truncated pair %d", i)
		}
		buf = buf[n:]
		a := prevA + int32(da)
		pairs = append(pairs, a, a+int32(db))
		prevA = a
	}
	return pairs, buf, nil
}

// publishTopology appends one frame to both topology logs — plain
// JSON and format=packed — so a round costs exactly one marshal per
// format regardless of subscriber count, and a cache-hit job, which
// serves the executing job's logs, costs none. Both marshals finish
// before it returns: f's slices may be engine scratch.
func (rp *replay) publishTopology(f TopologyFrame) {
	rp.topo.publish(f)
	rp.topoPacked.publish(packedFrame(f))
}

// publishHeader emits the round-0 header straight from a
// sim.StartEvent's scratch edge slice.
func (rp *replay) publishHeader(n int, edges []int32) {
	rp.publishTopology(TopologyFrame{Round: 0, N: n, Edges: edges})
}

// publishDelta emits one round's delta straight from the History's
// scratch. Rounds with no reconfiguration still emit a frame: the
// stream is the round clock, and an empty delta is two bytes of
// payload.
func (rp *replay) publishDelta(d temporal.RoundDelta) {
	rp.publishTopology(TopologyFrame{
		Round:         d.Round,
		Activate:      d.Activate,
		Deactivate:    d.Deactivate,
		EnvActivate:   d.EnvActivate,
		EnvDeactivate: d.EnvDeactivate,
	})
}
