//go:build e2e

package e2e

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postRun submits one run spec and returns the job ID and HTTP code.
func postRun(t *testing.T, base, body string) (id string, code int) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", resp.StatusCode
	}
	var sub struct {
		Job map[string]json.RawMessage `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(sub.Job["id"], &id)
	return id, resp.StatusCode
}

// awaitRun polls the run until it reaches the wanted state and
// returns its final status object.
func awaitRun(t *testing.T, base, id, want string) map[string]json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var status map[string]json.RawMessage
		if code := getJSON(t, base+"/v1/runs/"+id, &status); code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s = %d", id, code)
		}
		var state string
		json.Unmarshal(status["state"], &state)
		if state == want {
			return status
		}
		switch state {
		case "done", "failed", "canceled":
			t.Fatalf("run %s ended %s, want %s: %s", id, state, want, status["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s", id, want)
	return nil
}

// edgeKey is a canonical slot pair (a < b).
type edgeKey [2]int32

// applyPairs folds one flat slot-pair list into the live edge set,
// failing on inconsistent deltas (double activation, deactivating a
// missing edge) — the wire contract says deltas are exact.
func applyPairs(t *testing.T, edges map[edgeKey]bool, pairs []int32, activate bool, round int) {
	t.Helper()
	for i := 0; i+1 < len(pairs); i += 2 {
		k := edgeKey{pairs[i], pairs[i+1]}
		if k[0] >= k[1] {
			t.Fatalf("round %d: non-canonical pair (%d,%d)", round, k[0], k[1])
		}
		if activate {
			if edges[k] {
				t.Fatalf("round %d activates live edge (%d,%d)", round, k[0], k[1])
			}
			edges[k] = true
		} else {
			if !edges[k] {
				t.Fatalf("round %d deactivates missing edge (%d,%d)", round, k[0], k[1])
			}
			delete(edges, k)
		}
	}
}

// readUvarint pops one uvarint off buf.
func readUvarint(t *testing.T, buf []byte, what string) (uint64, []byte) {
	t.Helper()
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		t.Fatalf("packed frame: truncated %s", what)
	}
	return v, buf[n:]
}

// readPackedPairs decodes one length-prefixed delta-varint pair list —
// the client half of the format=packed wire contract: uvarint(#pairs),
// then per pair uvarint(a_i - a_{i-1}) and uvarint(b_i - a_i).
func readPackedPairs(t *testing.T, buf []byte) ([]int32, []byte) {
	t.Helper()
	count, buf := readUvarint(t, buf, "pair count")
	pairs := make([]int32, 0, 2*count)
	prevA := int32(0)
	for i := uint64(0); i < count; i++ {
		var da, db uint64
		da, buf = readUvarint(t, buf, "pair delta-a")
		db, buf = readUvarint(t, buf, "pair delta-b")
		a := prevA + int32(da)
		pairs = append(pairs, a, a+int32(db))
		prevA = a
	}
	return pairs, buf
}

// fetchStream GETs one NDJSON endpoint to completion and returns the
// raw body and its lines.
func fetchStream(t *testing.T, url string) (body []byte, lines [][]byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("GET %s Content-Type = %q", url, ct)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	return body, lines
}

// TestTopologyStreamEndToEnd drives the topology delta stream over
// real HTTP the way the README walkthrough does: submit one
// graph-to-star run, replay GET /v1/runs/{id}/topology frame by frame
// to reconstruct every D(i), do the same through format=packed with a
// from-scratch varint decoder, and check both replays land on the
// exact final topology — a perfect star. Then scrape /metrics and pin
// the encode-once accounting: one encode per frame per format, every
// frame fanned out exactly once, nobody dropped.
func TestTopologyStreamEndToEnd(t *testing.T) {
	srv := startServer(t)
	const n = 32
	id, code := postRun(t, srv, fmt.Sprintf(
		`{"algorithm":"graph-to-star","workload":"line","n":%d,"seed":5}`, n))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	status := awaitRun(t, srv, id, "done")
	var rounds int
	json.Unmarshal(status["rounds_streamed"], &rounds)
	if rounds <= 0 {
		t.Fatalf("run finished with %d rounds", rounds)
	}

	// Replay the plain JSON stream.
	jsonBody, jsonLines := fetchStream(t, srv+"/v1/runs/"+id+"/topology")
	if len(jsonLines) != rounds+1 {
		t.Fatalf("topology stream has %d frames, want %d (header + one per round)", len(jsonLines), rounds+1)
	}
	edges := make(map[edgeKey]bool)
	for i, line := range jsonLines {
		var f struct {
			Round      int     `json:"round"`
			N          int     `json:"n"`
			Edges      []int32 `json:"edges"`
			Activate   []int32 `json:"activate"`
			Deactivate []int32 `json:"deactivate"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Round != i {
			t.Fatalf("frame %d carries round %d — rounds must be gapless", i, f.Round)
		}
		if i == 0 {
			if f.N != n {
				t.Fatalf("header n = %d, want %d", f.N, n)
			}
			applyPairs(t, edges, f.Edges, true, 0)
			continue
		}
		applyPairs(t, edges, f.Activate, true, f.Round)
		applyPairs(t, edges, f.Deactivate, false, f.Round)
	}

	// Replay the packed stream with an independent decoder.
	packedBody, packedLines := fetchStream(t, srv+"/v1/runs/"+id+"/topology?format=packed")
	if len(packedLines) != rounds+1 {
		t.Fatalf("packed stream has %d frames, want %d", len(packedLines), rounds+1)
	}
	if len(packedBody) >= len(jsonBody) {
		t.Errorf("packed body is %d bytes, json %d — packing should shrink the stream", len(packedBody), len(jsonBody))
	}
	packedEdges := make(map[edgeKey]bool)
	for i, line := range packedLines {
		var f struct {
			Round int    `json:"round"`
			N     int    `json:"n"`
			P     string `json:"p"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("packed frame %d: %v", i, err)
		}
		if f.Round != i {
			t.Fatalf("packed frame %d carries round %d", i, f.Round)
		}
		buf, err := base64.StdEncoding.DecodeString(f.P)
		if err != nil {
			t.Fatalf("packed frame %d: %v", i, err)
		}
		if i == 0 {
			if f.N != n {
				t.Fatalf("packed header n = %d, want %d", f.N, n)
			}
			initial, rest := readPackedPairs(t, buf)
			if len(rest) != 0 {
				t.Fatalf("packed header has %d trailing bytes", len(rest))
			}
			applyPairs(t, packedEdges, initial, true, 0)
			continue
		}
		act, rest := readPackedPairs(t, buf)
		deact, rest := readPackedPairs(t, rest)
		if len(rest) != 0 {
			t.Fatalf("packed frame %d has %d trailing bytes", i, len(rest))
		}
		applyPairs(t, packedEdges, act, true, f.Round)
		applyPairs(t, packedEdges, deact, false, f.Round)
	}

	// Both replays reconstruct the same final D(i) — and for
	// graph-to-star that topology is an exact star: n-1 edges, one
	// center of degree n-1.
	if len(edges) != len(packedEdges) {
		t.Fatalf("json replay has %d edges, packed %d", len(edges), len(packedEdges))
	}
	deg := make(map[int32]int)
	for k := range edges {
		if !packedEdges[k] {
			t.Fatalf("edge (%d,%d) only in the json replay", k[0], k[1])
		}
		deg[k[0]]++
		deg[k[1]]++
	}
	if len(edges) != n-1 {
		t.Errorf("final topology has %d edges, want %d (star)", len(edges), n-1)
	}
	centers := 0
	for _, d := range deg {
		if d == n-1 {
			centers++
		}
	}
	if centers != 1 {
		t.Errorf("final topology has %d nodes of degree %d, want exactly 1 (star center)", centers, n-1)
	}

	// Unknown formats are rejected.
	resp, err := http.Get(srv + "/v1/runs/" + id + "/topology?format=protobuf")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=protobuf = %d, want 400", resp.StatusCode)
	}

	// Encode-once accounting on the real /metrics page: the run encoded
	// every frame exactly once, packed — no subscriber triggered a
	// marshal, and the json format, rendered from those frames per
	// subscriber, has no encode series at all — the two drains above
	// fanned out exactly those frames, and the backpressure policy
	// dropped nobody.
	m := scrapeMetrics(t, srv)
	frames := float64(rounds + 1)
	if v, _ := m.Value("adnet_stream_frames_encoded_total",
		map[string]string{"stream": "topology_packed"}); v != frames {
		t.Errorf("frames encoded {stream=\"topology_packed\"} = %v, want %v", v, frames)
	}
	if v, ok := m.Value("adnet_stream_frames_encoded_total",
		map[string]string{"stream": "topology"}); ok {
		t.Errorf("frames encoded {stream=\"topology\"} = %v, want the series absent", v)
	}
	for _, kind := range []string{"topology", "topology_packed"} {
		if v, _ := m.Value("adnet_stream_frames_sent_total",
			map[string]string{"stream": kind}); v != frames {
			t.Errorf("frames sent {stream=%q} = %v, want %v", kind, v, frames)
		}
		if v, _ := m.Value("adnet_stream_subscribers",
			map[string]string{"stream": kind}); v != 0 {
			t.Errorf("subscriber gauge {stream=%q} = %v after drain, want 0", kind, v)
		}
		if v, _ := m.Value("adnet_stream_subscribers_dropped_total",
			map[string]string{"stream": kind}); v != 0 {
			t.Errorf("dropped {stream=%q} = %v, want 0", kind, v)
		}
	}
	if v, _ := m.Value("adnet_stream_bytes_sent_total",
		map[string]string{"stream": "topology"}); v != float64(len(jsonBody)) {
		t.Errorf("bytes sent {stream=\"topology\"} = %v, want %d (the drained body)", v, len(jsonBody))
	}
	if v, _ := m.Value("adnet_stream_frames_encoded_total",
		map[string]string{"stream": "rounds"}); v != float64(rounds) {
		t.Errorf("frames encoded {stream=\"rounds\"} = %v, want %d — rounds encode once even with no subscriber", v, rounds)
	}
}
