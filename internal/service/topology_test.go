package service

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"testing"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/dynamics"
	"adnet/internal/expt"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

func TestPackPairsRoundTrip(t *testing.T) {
	t.Parallel()
	cases := [][]int32{
		nil,
		{0, 1},
		{0, 1, 0, 5, 2, 3, 2, 100, 7, 8},
		{5, 4000, 5, 4001, 4000, 4001},
	}
	for _, pairs := range cases {
		buf := packPairs(nil, pairs)
		got, rest, err := unpackPairs(buf)
		if err != nil {
			t.Fatalf("unpack(%v): %v", pairs, err)
		}
		if len(rest) != 0 {
			t.Errorf("unpack(%v) left %d bytes", pairs, len(rest))
		}
		if len(got) != len(pairs) {
			t.Fatalf("roundtrip(%v) = %v", pairs, got)
		}
		for i := range pairs {
			if got[i] != pairs[i] {
				t.Fatalf("roundtrip(%v) = %v", pairs, got)
			}
		}
	}
	// Two lists appended back to back unpack in sequence.
	buf := packPairs(nil, []int32{0, 2, 1, 3})
	buf = packPairs(buf, []int32{4, 9})
	first, rest, err := unpackPairs(buf)
	if err != nil || len(first) != 4 {
		t.Fatalf("first list = %v, %v", first, err)
	}
	second, rest, err := unpackPairs(rest)
	if err != nil || len(second) != 2 || len(rest) != 0 {
		t.Fatalf("second list = %v, rest=%d, %v", second, len(rest), err)
	}
	if _, _, err := unpackPairs([]byte{}); err == nil {
		t.Error("unpack of empty buffer should fail")
	}
}

// packedTopologyFrame is a line of /topology?format=packed: the
// record's packed edge lists, base64'd into one string field — 3-6x
// smaller than the json format on dense rounds. renderPacked appends it
// without a marshal; tests pin it against jsonFrame of this.
type packedTopologyFrame struct {
	Round int    `json:"round"`
	N     int    `json:"n,omitempty"`
	P     string `json:"p"`
}

// unpackTopology decodes one packed line off the wire, as a client
// does: the frame comes back in its json form, read by topologyFrame
// from the record the line was rendered from (round records with their
// statistics zeroed).
func unpackTopology(line []byte) (f TopologyFrame, err error) {
	var p packedTopologyFrame
	if err := json.Unmarshal(line, &p); err != nil {
		return f, fmt.Errorf("packed frame: %w", err)
	}
	rec := binary.AppendUvarint(nil, uint64(p.N))
	if p.Round > 0 {
		rec = append(binary.AppendUvarint(nil, uint64(p.Round)), make([]byte, roundFields-1)...)
	}
	if rec, err = base64.StdEncoding.AppendDecode(rec, []byte(p.P)); err != nil {
		return f, fmt.Errorf("packed frame: %w", err)
	}
	return topologyFrame(rec, p.Round == 0)
}

// TestUndecodableTopologyLine: a packed line or a record the publish
// hooks cannot have written is an error to the decoder, and a record
// renders as a well-formed NDJSON error line — to a json subscriber
// whatever is wrong with it, to /rounds and packed ones when its varint
// fields are cut short — never as a corrupted stream.
func TestUndecodableTopologyLine(t *testing.T) {
	t.Parallel()
	two := packPairs(packPairs(nil, []int32{0, 1}), nil)
	for name, line := range map[string]string{
		"not json":     "round 1\n",
		"not base64":   `{"round":1,"p":"!"}` + "\n",
		"one list":     `{"round":1,"p":"` + base64.StdEncoding.EncodeToString(two[:len(two)-1]) + `"}` + "\n",
		"three lists":  `{"round":1,"p":"` + base64.StdEncoding.EncodeToString(append(two, 0)) + `"}` + "\n",
		"header tail":  `{"round":0,"n":2,"p":"` + base64.StdEncoding.EncodeToString(two) + `"}` + "\n",
		"short header": `{"round":0,"n":2,"p":""}` + "\n",
	} {
		if f, err := unpackTopology([]byte(line)); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, f)
		}
	}

	round := func(lists []byte) []byte { return append([]byte{1, 1, 2, 0, 3, 2}, lists...) }
	header := func(lists []byte) []byte { return append([]byte{2}, lists...) }
	for name, tc := range map[string]struct {
		rec    []byte
		header bool
		cut    bool // the varint fields are cut short: every render fails
	}{
		"empty record": {rec: nil, cut: true},
		"cut fields":   {rec: []byte{1, 1, 2, 0x80}, cut: true},
		"empty header": {rec: nil, header: true, cut: true},
		"one list":     {rec: round(two[:len(two)-1])},
		"three lists":  {rec: round(append(two, 0))},
		"header tail":  {rec: header(two), header: true},
		"short header": {rec: header(nil), header: true},
	} {
		if f, err := topologyFrame(tc.rec, tc.header); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, f)
		}
		renders := map[string]renderFunc{"json": renderJSON}
		if tc.cut {
			renders["packed"] = renderPacked
			if !tc.header {
				renders["rounds"] = renderRounds
			}
		}
		for format, render := range renders {
			var env errorResponse
			i := 1 // a round record
			if tc.header {
				i = 0
			}
			out := render([]byte("kept\n"), tc.rec, i)
			if !bytes.HasPrefix(out, []byte("kept\n")) {
				t.Fatalf("%s: %s render dropped what the buffer held: %q", name, format, out)
			}
			out = out[len("kept\n"):]
			if err := json.Unmarshal(out, &env); err != nil || env.Error.Code != codeInternal || out[len(out)-1] != '\n' {
				t.Errorf("%s: %s rendered %q, want one internal-error line", name, format, out)
			}
		}
	}
}

// edgeSet replays topology frames into the active slot-pair edge set.
type edgeSet map[[2]int32]bool

func (es edgeSet) apply(t *testing.T, round int, activate, deactivate []int32) {
	t.Helper()
	for i := 0; i+1 < len(activate); i += 2 {
		k := [2]int32{activate[i], activate[i+1]}
		if es[k] {
			t.Fatalf("round %d activates already-active edge %v", round, k)
		}
		es[k] = true
	}
	for i := 0; i+1 < len(deactivate); i += 2 {
		k := [2]int32{deactivate[i], deactivate[i+1]}
		if !es[k] {
			t.Fatalf("round %d deactivates inactive edge %v", round, k)
		}
		delete(es, k)
	}
}

func (es edgeSet) sorted() [][2]int32 {
	out := make([][2]int32, 0, len(es))
	for k := range es {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// finalSlotPairs renders a graph as the sorted slot-pair set the
// topology stream's deltas should reconstruct.
func finalSlotPairs(g *graph.Graph) [][2]int32 {
	nodes := g.Nodes() // a slot is its node's rank among these
	var out [][2]int32
	for su, u := range nodes {
		for _, v := range g.Neighbors(u) {
			if sv, _ := slices.BinarySearch(nodes, v); sv > su {
				out = append(out, [2]int32{int32(su), int32(sv)})
			}
		}
	}
	return out
}

// renderLog is the body an endpoint serves for a closed log: every
// record from first on through render.
func renderLog(s *frameLog, render renderFunc, first int) (body []byte) {
	for i, rec := range logLines(s) {
		if i >= first {
			body = render(body, rec, i)
		}
	}
	return body
}

// renderTopology is the body GET /topology (json) serves for a closed
// run log, packedBody the body of ?format=packed.
func renderTopology(s *frameLog) []byte { return renderLog(s, renderJSON, 0) }
func packedBody(s *frameLog) []byte     { return renderLog(s, renderPacked, 0) }

// decodeTopology is what a json subscriber parses out of a closed run
// log, unpackedTopology what a packed one does.
func decodeTopology(t *testing.T, s *frameLog) (frames []TopologyFrame) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(renderTopology(s)))
	for dec.More() {
		var f TopologyFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("bad frame: %v", err)
		}
		frames = append(frames, f)
	}
	return frames
}

func unpackedTopology(t *testing.T, s *frameLog) (frames []TopologyFrame) {
	t.Helper()
	for _, line := range bytes.SplitAfter(packedBody(s), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		f, err := unpackTopology(line)
		if err != nil {
			t.Fatalf("bad packed frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// replayTopology replays header + deltas into the reconstructed edge
// set.
func replayTopology(t *testing.T, frames []TopologyFrame, wantN int) edgeSet {
	t.Helper()
	es := make(edgeSet)
	for next, f := range frames {
		if f.Round != next {
			t.Fatalf("frame round %d, want %d (no gaps, no reorder)", f.Round, next)
		}
		if f.Round == 0 {
			if f.N != wantN {
				t.Fatalf("header n=%d, want %d", f.N, wantN)
			}
			es.apply(t, 0, f.Edges, nil)
			continue
		}
		es.apply(t, f.Round, f.Activate, f.Deactivate)
		es.apply(t, f.Round, f.EnvActivate, f.EnvDeactivate)
	}
	return es
}

// replayMetrics rebuilds D(1) from the header alone — slot s is node
// ID s — and replays every delta through temporal.History.ApplyDelta:
// the cost measures recomputed from the wire, by the accounting the
// run used.
func replayMetrics(t *testing.T, frames []TopologyFrame) temporal.Metrics {
	t.Helper()
	header, gs := frames[0], graph.New()
	for u := 0; u < header.N; u++ {
		gs.AddNode(graph.ID(u))
	}
	for i := 0; i+1 < len(header.Edges); i += 2 {
		gs.MustAddEdge(graph.ID(header.Edges[i]), graph.ID(header.Edges[i+1]))
	}
	h := temporal.NewHistory(gs)
	for _, f := range frames[1:] {
		if _, err := h.ApplyDelta(temporal.RoundDelta{Round: f.Round, Activate: f.Activate, Deactivate: f.Deactivate,
			EnvActivate: f.EnvActivate, EnvDeactivate: f.EnvDeactivate}); err != nil {
			t.Fatalf("replaying round %d: %v", f.Round, err)
		}
	}
	return h.Metrics()
}

// wireRef is what the three renders of a run's log are pinned to:
// jsonFrame of the values the hooks were handed, written next to the
// log as the run goes — the lines the server stored while it still kept
// a log of JSON lines per endpoint.
type wireRef struct{ rounds, topology, packed bytes.Buffer }

// referenceHooks publishes a run to ts and writes its reference wire to
// ref.
func referenceHooks(ts *replay, ref *wireRef) []sim.Option {
	return []sim.Option{
		sim.WithStartHook(func(ev sim.StartEvent) {
			ts.publishHeader(ev.N, ev.Edges)
			ref.topology.Write(jsonFrame(TopologyFrame{N: ev.N, Edges: ev.Edges}))
			ref.packed.Write(jsonFrame(packedTopologyFrame{N: ev.N, P: base64.StdEncoding.EncodeToString(packPairs(nil, ev.Edges))}))
		}),
		sim.WithDeltaHook(func(d temporal.RoundDelta) {
			ts.publishDelta(d)
			ref.rounds.Write(jsonFrame(d.Stats))
			ref.topology.Write(jsonFrame(TopologyFrame{
				Round:         d.Round,
				Activate:      d.Activate,
				Deactivate:    d.Deactivate,
				EnvActivate:   d.EnvActivate,
				EnvDeactivate: d.EnvDeactivate,
			}))
			lists := packPairs(packPairs(nil, d.Activate), d.Deactivate)
			if len(d.EnvActivate) > 0 || len(d.EnvDeactivate) > 0 {
				lists = packPairs(packPairs(lists, d.EnvActivate), d.EnvDeactivate)
			}
			ref.packed.Write(jsonFrame(packedTopologyFrame{Round: d.Round, P: base64.StdEncoding.EncodeToString(lists)}))
		}),
	}
}

// checkTopology is the shared tail of the two reconstruction tests:
// every render of the log equals its reference byte for byte, the log's
// served bytes are the /rounds and packed references' lengths, and both
// topology formats replay to exactly the edge set want (edgeSet, the
// independent reference) and, through ApplyDelta, to exactly the run's
// metrics.
func checkTopology(t *testing.T, ts *replay, ref *wireRef, res *sim.Result, want [][2]int32) {
	t.Helper()
	for name, c := range map[string]struct {
		got, want []byte
	}{
		"json topology":   {renderTopology(ts.log), ref.topology.Bytes()},
		"packed topology": {packedBody(ts.log), ref.packed.Bytes()},
		"rounds":          {renderLog(ts.log, renderRounds, 1), ref.rounds.Bytes()},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Fatalf("%s rendering of the record log differs from jsonFrame of the hook values:\ngot  %q\nwant %q", name, c.got, c.want)
		}
	}
	if got, want := ts.FrameBytes(), int64(ref.rounds.Len()+ref.packed.Len()); got != want {
		t.Fatalf("log counts %d served bytes, /rounds and packed /topology serve %d", got, want)
	}
	for name, frames := range map[string][]TopologyFrame{
		"json":   decodeTopology(t, ts.log),
		"packed": unpackedTopology(t, ts.log),
	} {
		if got := replayTopology(t, frames, res.History.NumNodes()).sorted(); !slices.Equal(got, want) {
			t.Fatalf("%s replay: %d edges %v, want %d %v", name, len(got), got, len(want), want)
		}
		if got := replayMetrics(t, frames); got != res.Metrics {
			t.Fatalf("%s replay metrics = %+v, want the run's %+v", name, got, res.Metrics)
		}
	}
}

// TestTopologyDeltaReconstruction is the differential test for the
// delta wire format: for every distributed algorithm, a subscriber
// replaying the stream's header + per-round deltas — in both the json
// and packed formats — must reconstruct exactly the final D(i) the
// engine's History holds, and replaying it through ApplyDelta must
// recompute exactly the run's cost measures.
func TestTopologyDeltaReconstruction(t *testing.T) {
	t.Parallel()
	const n = 48
	for _, name := range expt.Algorithms() {
		if !expt.Simulated(name) {
			continue
		}
		factory, defaults, err := expt.Simulation(name, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, workload := range []string{"line", "random-tree"} {
			t.Run(fmt.Sprintf("%s/%s", name, workload), func(t *testing.T) {
				t.Parallel()
				g, err := expt.Workload(workload, n, 11)
				if err != nil {
					t.Fatal(err)
				}
				ts := bareReplay()
				var ref wireRef
				res, err := sim.Run(g, factory, append(referenceHooks(ts, &ref), defaults...)...)
				if err != nil {
					t.Fatalf("%s run: %v", name, err)
				}
				ts.close()

				frames := decodeTopology(t, ts.log)
				if len(frames) == 0 || frames[0].Round != 0 {
					t.Fatal("stream must start with the round-0 header")
				}
				if got := len(frames) - 1; got != res.Rounds {
					t.Errorf("stream carries %d delta frames, want one per round (%d)", got, res.Rounds)
				}
				checkTopology(t, ts, &ref, res, finalSlotPairs(res.History.CurrentView()))
			})
		}
	}
}

// TestTopologyDeltaReconstructionWithEnv extends the differential test
// to perturbed runs: with a dynamics environment attached, the frames
// carry the environment's edits as a distinct tagged delta source, and
// replaying all four lists (algorithm + environment) — in both wire
// formats — must still reconstruct exactly the final graph and, through
// ApplyDelta, the run's metrics. The
// paper's constructions may honestly fail under perturbation
// (round-limit or contained panic); the stream up to the abort must
// replay exactly regardless.
func TestTopologyDeltaReconstructionWithEnv(t *testing.T) {
	t.Parallel()
	const n = 48
	specs := []dynamics.Spec{
		{Class: dynamics.ClassEdgeChurn, Rate: 2},
		{Class: dynamics.ClassEdgeChurn, Rate: 2, Preserve: true},
		{Class: dynamics.ClassBurst, Quiet: 3, Storm: 2},
		{Class: dynamics.ClassCrash, Rate: 2, Down: 2},
	}
	factories := map[string]sim.Factory{
		expt.AlgoStar:  core.NewGraphToStarFactory(),
		expt.AlgoFlood: baseline.NewFloodFactory(),
	}
	for name, factory := range factories {
		for _, spec := range specs {
			t.Run(fmt.Sprintf("%s/%s", name, spec.Class), func(t *testing.T) {
				t.Parallel()
				g, err := expt.Workload("random-tree", n, 11)
				if err != nil {
					t.Fatal(err)
				}
				env, err := dynamics.New(spec, 11)
				if err != nil {
					t.Fatal(err)
				}
				ts := bareReplay()
				var ref wireRef
				res, runErr := sim.Run(g, factory, append(referenceHooks(ts, &ref),
					sim.WithEnvironment(env),
					sim.WithMaxRounds(200))...)
				ts.close()
				if res == nil {
					t.Fatalf("run returned no result (err=%v)", runErr)
				}
				t.Logf("run err=%v", runErr)

				frames := decodeTopology(t, ts.log)
				if len(frames) == 0 || frames[0].Round != 0 {
					t.Fatal("stream must start with the round-0 header")
				}
				envEdits := 0
				for _, f := range frames {
					envEdits += len(f.EnvActivate) + len(f.EnvDeactivate)
				}
				if spec.Class != dynamics.ClassCrash && envEdits == 0 {
					t.Errorf("%s stream carries no environment edits", spec.Class)
				}

				checkTopology(t, ts, &ref, res, finalSlotPairs(res.History.CurrentView()))
			})
		}
	}
}

// TestAPITopologyEndpoint exercises GET /v1/runs/{id}/topology over
// HTTP: the json body must be the packed log's rendering line for line, a
// cache-hit replay job must serve a byte-identical stream, the packed
// format must reconstruct the same edge set, and an unknown format is
// a 400.
func TestAPITopologyEndpoint(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1})

	sub, code := postRun(t, srv, fastSpec(55))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	awaitDone(t, srv, sub.Job.ID)
	job, _ := m.Get(sub.Job.ID)

	body := drainBody(t, srv, "/v1/runs/"+sub.Job.ID+"/topology")
	if want := renderTopology(job.log); len(want) == 0 || !bytes.Equal(body, want) {
		t.Errorf("topology endpoint body (%d bytes) differs from the frame-log rendering (%d bytes)", len(body), len(want))
	}

	// The header must carry the run's n, and deltas one frame per round.
	var header TopologyFrame
	if err := json.Unmarshal(body[:bytes.IndexByte(body, '\n')+1], &header); err != nil {
		t.Fatal(err)
	}
	if header.Round != 0 || header.N != fastSpec(55).N {
		t.Errorf("header = %+v", header)
	}

	// The packed format is the log's packed rendering, smaller than the
	// json one, and reconstructs the same final edge set.
	packed := drainBody(t, srv, "/v1/runs/"+sub.Job.ID+"/topology?format=packed")
	if !bytes.Equal(packed, packedBody(job.log)) {
		t.Error("packed body is not the record log's packed rendering")
	}
	if len(packed) >= len(body) {
		t.Errorf("packed body (%d bytes) not smaller than json body (%d bytes)", len(packed), len(body))
	}
	jsonSet := replayTopology(t, decodeTopology(t, job.log), header.N).sorted()
	packedSet := replayTopology(t, unpackedTopology(t, job.log), header.N).sorted()
	if !slices.Equal(jsonSet, packedSet) {
		t.Fatalf("json and packed reconstructions disagree:\njson   %v\npacked %v", jsonSet, packedSet)
	}

	// A cache hit serves a byte-identical topology replay.
	cachedSub, code := postRun(t, srv, fastSpec(55))
	if code != http.StatusOK || !cachedSub.Cached {
		t.Fatalf("resubmit = (%d, cached=%v), want cache hit", code, cachedSub.Cached)
	}
	if cachedBody := drainBody(t, srv, "/v1/runs/"+cachedSub.Job.ID+"/topology"); !bytes.Equal(cachedBody, body) {
		t.Error("cache-hit topology replay is not byte-identical to the original stream")
	}

	resp, err := http.Get(srv.URL + "/v1/runs/" + sub.Job.ID + "/topology?format=protobuf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", resp.StatusCode)
	}
}
