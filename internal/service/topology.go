package service

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"adnet/internal/temporal"
)

// TopologyFrame is one NDJSON line of GET /v1/runs/{id}/topology in
// its default json format: the compact per-round reconfiguration delta
// a subscriber replays to reconstruct D(i) without the server ever
// materializing full adjacency per subscriber. A run's topology is held
// once, packed; jsonTopology renders this from a line of that log.
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

// packedTopologyFrame is a line of a run's topology log, served as it
// is by format=packed: the slot pairs delta-varint packed (packPairs)
// and base64'd into one string field, 3-6x smaller than the json
// rendering on dense rounds. The header packs its initial edge list; a
// delta packs activations then deactivations and — only when a dynamics
// environment edited anything this round — the environment's two lists
// as a third and fourth. Decoders detect the extension by the remaining
// bytes; dynamics-free streams stay byte-identical to the two-list format.
type packedTopologyFrame struct {
	Round int    `json:"round"`
	N     int    `json:"n,omitempty"`
	P     string `json:"p"`
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
// slot pairs and the remaining bytes. It is the inverse of packPairs.
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
		db, m := binary.Uvarint(buf[max(n, 0):])
		if n <= 0 || m <= 0 {
			return nil, nil, fmt.Errorf("service: packed frame: truncated pair %d", i)
		}
		buf = buf[n+m:]
		a := prevA + int32(da)
		pairs = append(pairs, a, a+int32(db))
		prevA = a
	}
	return pairs, buf, nil
}

// unpackTopology decodes one line of a topology log: the one packed
// decoder in the product.
func unpackTopology(line []byte) (f TopologyFrame, err error) {
	var p packedTopologyFrame
	if err := json.Unmarshal(line, &p); err != nil {
		return f, fmt.Errorf("service: packed frame: %w", err)
	}
	buf, err := base64.StdEncoding.DecodeString(p.P)
	if err != nil {
		return f, fmt.Errorf("service: packed frame: %w", err)
	}
	f.Round, f.N = p.Round, p.N
	lists := []*[]int32{&f.Edges}
	if p.Round > 0 {
		lists = []*[]int32{&f.Activate, &f.Deactivate, &f.EnvActivate, &f.EnvDeactivate}
	}
	for i, list := range lists {
		if i == 2 && len(buf) == 0 {
			break // no environment extension
		}
		if *list, buf, err = unpackPairs(buf); err != nil {
			return f, err
		}
	}
	if len(buf) != 0 {
		return f, fmt.Errorf("service: packed frame: %d trailing bytes", len(buf))
	}
	return f, nil
}

// jsonTopology renders a line of a topology log in the json format,
// byte for byte what publishing its TopologyFrame would have stored; a
// line the publish hooks did not write is reported in place, like a
// marshal failure in jsonFrame.
func jsonTopology(line []byte) []byte {
	f, err := unpackTopology(line)
	if err != nil {
		return jsonFrame(errorResponse{Error: ErrorBody{Code: codeInternal, Message: err.Error()}})
	}
	return jsonFrame(f)
}

// publishHeader emits the round-0 header, packed straight from a
// sim.StartEvent's scratch edge slice.
func (rp *replay) publishHeader(n int, edges []int32) {
	rp.topo.publish(packedTopologyFrame{N: n, P: base64.StdEncoding.EncodeToString(packPairs(nil, edges))})
}

// publishDelta emits one round's record: its statistics to the rounds
// log and its edits, packed straight from the History's scratch, to
// the topology log. Rounds with no reconfiguration still emit a frame:
// the stream is the round clock, and an empty delta is two bytes.
func (rp *replay) publishDelta(d temporal.RoundDelta) {
	rp.rounds.publish(d.Stats)
	buf := packPairs(packPairs(nil, d.Activate), d.Deactivate)
	if len(d.EnvActivate) > 0 || len(d.EnvDeactivate) > 0 {
		buf = packPairs(packPairs(buf, d.EnvActivate), d.EnvDeactivate)
	}
	rp.topo.publish(packedTopologyFrame{Round: d.Round, P: base64.StdEncoding.EncodeToString(buf)})
}
