package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
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

// decodeTopology decodes the frames a closed json-format topology log
// serves.
func decodeTopology(t *testing.T, s *frameLog) []TopologyFrame {
	t.Helper()
	var frames []TopologyFrame
	dec := json.NewDecoder(bytes.NewReader(collectFrames(t, s)))
	for dec.More() {
		var f TopologyFrame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("bad frame: %v", err)
		}
		frames = append(frames, f)
	}
	return frames
}

// replayTopologyJSON drains a closed json-format topology stream and
// replays header + deltas into the reconstructed edge set.
func replayTopologyJSON(t *testing.T, s *frameLog, wantN int) edgeSet {
	t.Helper()
	es := make(edgeSet)
	cursor, next := 0, 0
	for {
		batch, ok := s.WaitFrames(context.Background(), cursor)
		if !ok {
			return es
		}
		for _, line := range batch {
			var f TopologyFrame
			if err := json.Unmarshal(line, &f); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			if f.Round != next {
				t.Fatalf("frame round %d, want %d (no gaps, no reorder)", f.Round, next)
			}
			next++
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
		cursor += len(batch)
	}
}

// replayTopologyPacked does the same through the format=packed wire.
func replayTopologyPacked(t *testing.T, s *frameLog, wantN int) edgeSet {
	t.Helper()
	es := make(edgeSet)
	cursor, next := 0, 0
	for {
		batch, ok := s.WaitFrames(context.Background(), cursor)
		if !ok {
			return es
		}
		for _, line := range batch {
			var f packedTopologyFrame
			if err := json.Unmarshal(line, &f); err != nil {
				t.Fatalf("bad packed frame %q: %v", line, err)
			}
			if f.Round != next {
				t.Fatalf("packed frame round %d, want %d", f.Round, next)
			}
			next++
			payload, err := base64.StdEncoding.DecodeString(f.P)
			if err != nil {
				t.Fatalf("round %d: bad base64: %v", f.Round, err)
			}
			if f.Round == 0 {
				if f.N != wantN {
					t.Fatalf("packed header n=%d, want %d", f.N, wantN)
				}
				edges, rest, err := unpackPairs(payload)
				if err != nil || len(rest) != 0 {
					t.Fatalf("header unpack: %v (rest=%d)", err, len(rest))
				}
				es.apply(t, 0, edges, nil)
				continue
			}
			act, rest, err := unpackPairs(payload)
			if err != nil {
				t.Fatalf("round %d: activate unpack: %v", f.Round, err)
			}
			deact, rest, err := unpackPairs(rest)
			if err != nil {
				t.Fatalf("round %d: deactivate unpack: %v", f.Round, err)
			}
			es.apply(t, f.Round, act, deact)
			// Bytes past the two algorithm lists are the environment
			// extension: env activations then env deactivations.
			if len(rest) > 0 {
				envAct, envRest, err := unpackPairs(rest)
				if err != nil {
					t.Fatalf("round %d: env activate unpack: %v", f.Round, err)
				}
				envDeact, envRest, err := unpackPairs(envRest)
				if err != nil || len(envRest) != 0 {
					t.Fatalf("round %d: env deactivate unpack: %v (rest=%d)", f.Round, err, len(envRest))
				}
				es.apply(t, f.Round, envAct, envDeact)
			}
		}
		cursor += len(batch)
	}
}

// TestTopologyDeltaReconstruction is the differential test for the
// delta wire format: for every distributed algorithm, a subscriber
// replaying the stream's header + per-round deltas — in both the json
// and packed formats — must reconstruct exactly the final D(i) the
// engine's History holds.
func TestTopologyDeltaReconstruction(t *testing.T) {
	t.Parallel()
	const n = 48
	algos := []struct {
		name    string
		factory sim.Factory
		opts    []sim.Option
	}{
		{name: expt.AlgoStar, factory: core.NewGraphToStarFactory()},
		{name: expt.AlgoWreath, factory: core.NewGraphToWreathFactory(),
			opts: []sim.Option{sim.WithMaxRounds(core.WreathMaxRounds(n, core.WreathBranching(n, false)))}},
		{name: expt.AlgoThinWreath, factory: core.NewGraphToThinWreathFactory(),
			opts: []sim.Option{sim.WithMaxRounds(core.WreathMaxRounds(n, core.WreathBranching(n, true)))}},
		{name: expt.AlgoClique, factory: baseline.NewCliqueFactory()},
		{name: expt.AlgoFlood, factory: baseline.NewFloodFactory()},
	}
	for _, algo := range algos {
		for _, workload := range []string{"line", "random-tree"} {
			t.Run(fmt.Sprintf("%s/%s", algo.name, workload), func(t *testing.T) {
				t.Parallel()
				g, err := expt.Workload(workload, n, 11)
				if err != nil {
					t.Fatal(err)
				}
				ts := bareReplay()
				opts := append([]sim.Option{
					sim.WithStartHook(func(ev sim.StartEvent) { ts.publishHeader(ev.N, ev.Edges) }),
					sim.WithDeltaHook(ts.publishDelta),
				}, algo.opts...)
				res, err := sim.Run(g, algo.factory, opts...)
				if err != nil {
					t.Fatalf("%s run: %v", algo.name, err)
				}
				ts.close()

				want := finalSlotPairs(res.History.CurrentView())
				frames := decodeTopology(t, ts.topo)
				if len(frames) == 0 || frames[0].Round != 0 {
					t.Fatal("stream must start with the round-0 header")
				}
				if got := len(frames) - 1; got != res.Rounds {
					t.Errorf("stream carries %d delta frames, want one per round (%d)", got, res.Rounds)
				}

				for name, got := range map[string][][2]int32{
					"json":   replayTopologyJSON(t, ts.topo, n).sorted(),
					"packed": replayTopologyPacked(t, ts.topoPacked, n).sorted(),
				} {
					if len(got) != len(want) {
						t.Fatalf("%s replay: %d edges, want %d", name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s replay: edge[%d] = %v, want %v", name, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestTopologyDeltaReconstructionWithEnv extends the differential test
// to perturbed runs: with a dynamics environment attached, the frames
// carry the environment's edits as a distinct tagged delta source, and
// replaying all four lists (algorithm + environment) — in both wire
// formats — must still reconstruct exactly the final graph. The
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
				res, runErr := sim.Run(g, factory,
					sim.WithStartHook(func(ev sim.StartEvent) { ts.publishHeader(ev.N, ev.Edges) }),
					sim.WithDeltaHook(ts.publishDelta),
					sim.WithEnvironment(env),
					sim.WithMaxRounds(200))
				ts.close()
				if res == nil {
					t.Fatalf("run returned no result (err=%v)", runErr)
				}

				frames := decodeTopology(t, ts.topo)
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

				want := finalSlotPairs(res.History.CurrentView())
				for kind, got := range map[string][][2]int32{
					"json":   replayTopologyJSON(t, ts.topo, n).sorted(),
					"packed": replayTopologyPacked(t, ts.topoPacked, n).sorted(),
				} {
					if len(got) != len(want) {
						t.Fatalf("%s replay: %d edges, want %d (run err=%v)", kind, len(got), len(want), runErr)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s replay: edge[%d] = %v, want %v", kind, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestAPITopologyEndpoint exercises GET /v1/runs/{id}/topology over
// HTTP: the json body must be the frame-log rendering line for line, a
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

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	body := get("/v1/runs/" + sub.Job.ID + "/topology")
	var want bytes.Buffer
	frames := decodeTopology(t, job.topo)
	if len(frames) == 0 {
		t.Fatal("job published no topology frames")
	}
	for _, f := range frames {
		want.Write(jsonFrame(f))
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Error("topology endpoint body differs from the frame-log rendering")
	}

	// The header must carry the run's n, and deltas one frame per round.
	var header TopologyFrame
	if err := json.Unmarshal(body[:bytes.IndexByte(body, '\n')+1], &header); err != nil {
		t.Fatal(err)
	}
	if header.Round != 0 || header.N != fastSpec(55).N {
		t.Errorf("header = %+v", header)
	}

	// Packed format reconstructs the same final edge set.
	packedBody := get("/v1/runs/" + sub.Job.ID + "/topology?format=packed")
	if len(packedBody) >= len(body) {
		t.Errorf("packed body (%d bytes) not smaller than json body (%d bytes)", len(packedBody), len(body))
	}
	jsonSet := replayTopologyJSON(t, job.topo, header.N).sorted()
	packedSet := replayTopologyPacked(t, job.topoPacked, header.N).sorted()
	if len(jsonSet) != len(packedSet) {
		t.Fatalf("json and packed reconstructions disagree: %d vs %d edges", len(jsonSet), len(packedSet))
	}
	for i := range jsonSet {
		if jsonSet[i] != packedSet[i] {
			t.Fatalf("edge[%d]: json %v, packed %v", i, jsonSet[i], packedSet[i])
		}
	}

	// A cache hit serves a byte-identical topology replay.
	cachedSub, code := postRun(t, srv, fastSpec(55))
	if code != http.StatusOK || !cachedSub.Cached {
		t.Fatalf("resubmit = (%d, cached=%v), want cache hit", code, cachedSub.Cached)
	}
	if cachedBody := get("/v1/runs/" + cachedSub.Job.ID + "/topology"); !bytes.Equal(cachedBody, body) {
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
