package service

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"time"

	"adnet/internal/temporal"
)

// TopologyFrame is one NDJSON line of GET /v1/runs/{id}/topology in
// its default json format: the compact per-round reconfiguration delta
// a subscriber replays to reconstruct D(i) without the server ever
// materializing full adjacency per subscriber. A run is held once, as
// its records; renderJSON decodes this from one of them.
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

// roundFields is the number of varint fields leading a round record.
// A run's log holds one record per frame of /topology. Record 0 is the
// header: uvarint(n), then packPairs(E(1)). Record i is round i: the
// round and its five RoundStats fields as uvarints, then the round's
// activations and deactivations packed and — only when a dynamics
// environment edited anything this round — the environment's two lists
// as a third and fourth. Everything after the varint fields is exactly
// what the packed format base64-encodes into its "p" field, so decoders
// detect the environment extension by the remaining bytes and
// dynamics-free streams stay byte-identical to the two-list format.
// /rounds renders records 1.. as RoundStats lines; /topology renders
// every record, packed or as a TopologyFrame.
const roundFields = 6

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

// splitRecord reads a record's leading varint fields — n for the
// header, the round and its five statistics otherwise — and returns
// them with the packed edge lists that follow.
func splitRecord(rec []byte, header bool) (f [roundFields]int, lists []byte, err error) {
	k := roundFields
	if header {
		k = 1
	}
	for i := range k {
		v, w := binary.Uvarint(rec)
		if w <= 0 {
			return f, nil, errors.New("service: run record: truncated fields")
		}
		f[i], rec = int(int64(v)), rec[w:]
	}
	return f, rec, nil
}

// renderFunc appends the line an endpoint serves for record i of a
// job's log to buf; record 0 of a run's log is its header. A record the
// producer cannot have written renders as a well-formed NDJSON error
// line, like a marshal failure in jsonFrame, never as a corrupted
// stream.
type renderFunc func(buf, rec []byte, i int) []byte

func appendError(buf []byte, err error) []byte {
	return append(buf, jsonFrame(errorResponse{Error: ErrorBody{Code: codeInternal, Message: err.Error()}})...)
}

// roundsKeys are the keys of a RoundStats line, each with the
// punctuation before it, in field order.
var roundsKeys = [roundFields - 1]string{`{"Round":`, `,"Activated":`, `,"Deactivated":`, `,"ActiveEdges":`, `,"ActivatedAlive":`}

// renderRounds is /rounds: jsonFrame(RoundStats) of a round record.
func renderRounds(buf, rec []byte, _ int) []byte {
	f, _, err := splitRecord(rec, false)
	if err != nil {
		return appendError(buf, err)
	}
	for i, key := range roundsKeys {
		buf = append(buf, key...)
		buf = strconv.AppendInt(buf, int64(f[i+1]), 10)
	}
	return append(buf, "}\n"...)
}

// renderPacked is /topology?format=packed: {"round":r,"n":n,"p":"…"},
// n only when non-zero (the header's), p the base64 of the record's
// packed lists.
func renderPacked(buf, rec []byte, i int) []byte {
	header := i == 0
	f, lists, err := splitRecord(rec, header)
	if err != nil {
		return appendError(buf, err)
	}
	round, n := f[0], 0
	if header {
		round, n = 0, f[0]
	}
	buf = append(buf, `{"round":`...)
	buf = strconv.AppendInt(buf, int64(round), 10)
	if n != 0 {
		buf = append(buf, `,"n":`...)
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	buf = append(buf, `,"p":"`...)
	buf = base64.StdEncoding.AppendEncode(buf, lists)
	return append(buf, "\"}\n"...)
}

// renderJSON is /topology's default format: jsonFrame of the record's
// TopologyFrame.
func renderJSON(buf, rec []byte, i int) []byte {
	f, err := topologyFrame(rec, i == 0)
	if err != nil {
		return appendError(buf, err)
	}
	return append(buf, jsonFrame(f)...)
}

// topologyFrame decodes a record into the TopologyFrame it renders as.
func topologyFrame(rec []byte, header bool) (f TopologyFrame, err error) {
	fields, buf, err := splitRecord(rec, header)
	if err != nil {
		return f, err
	}
	lists := []*[]int32{&f.Activate, &f.Deactivate, &f.EnvActivate, &f.EnvDeactivate}
	if header {
		f.N, lists = fields[0], []*[]int32{&f.Edges}
	} else {
		f.Round = fields[0]
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

// decimalLen is len(strconv.AppendInt(nil, v, 10)).
func decimalLen(v int) int {
	var b [20]byte
	return len(strconv.AppendInt(b[:0], int64(v), 10))
}

// servedLen is what /rounds (round records only) and
// /topology?format=packed serve for a record with these varint fields
// and lists bytes of packed edge lists — the lengths of renderRounds
// and renderPacked, computed without rendering.
func servedLen(f [roundFields]int, lists int, header bool) int {
	packed := len(`{"round":,"p":""}`+"\n") + base64.StdEncoding.EncodedLen(lists)
	if header {
		if f[0] != 0 {
			packed += len(`,"n":`) + decimalLen(f[0])
		}
		return packed + 1 // round 0
	}
	rounds := len("}\n")
	for i, key := range roundsKeys {
		rounds += len(key) + decimalLen(f[i+1])
	}
	return rounds + packed + decimalLen(f[0])
}

// publishHeader appends record 0, packed straight from a
// sim.StartEvent's scratch edge slice.
func (rp *replay) publishHeader(n int, edges []int32) {
	start := time.Now()
	buf := binary.AppendUvarint(rp.scratch[:0], uint64(n))
	head := len(buf)
	buf = packPairs(buf, edges)
	rp.commit(start, buf, servedLen([roundFields]int{n}, len(buf)-head, true), rp.headerObs)
}

// publishDelta appends one round's record, packed straight from the
// History's scratch. Rounds with no reconfiguration still get one: the
// log is the round clock, and an empty delta is two bytes of lists.
func (rp *replay) publishDelta(d temporal.RoundDelta) {
	start := time.Now()
	st := d.Stats
	f := [roundFields]int{d.Round, st.Round, st.Activated, st.Deactivated, st.ActiveEdges, st.ActivatedAlive}
	buf := rp.scratch[:0]
	for _, v := range f {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	head := len(buf)
	buf = packPairs(packPairs(buf, d.Activate), d.Deactivate)
	if len(d.EnvActivate) > 0 || len(d.EnvDeactivate) > 0 {
		buf = packPairs(packPairs(buf, d.EnvActivate), d.EnvDeactivate)
	}
	rp.commit(start, buf, servedLen(f, len(buf)-head, false), rp.recordObs)
}

// commit appends an exact-size copy of rec, packed in the producer's
// scratch — the one allocation a record costs — and observes the
// packing time since start.
func (rp *replay) commit(start time.Time, rec []byte, served int, observe func(time.Duration)) {
	rp.scratch = rec
	rp.log.add(bytes.Clone(rec), served)
	if observe != nil {
		observe(time.Since(start))
	}
}
