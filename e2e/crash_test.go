//go:build e2e

package e2e

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"adnet/internal/expt"
	"adnet/internal/journal"
)

// journalTally reads the single sweep journal under dataDir off disk
// (the files a crashed process left behind): the run keys of its
// kind-5 records — one per finished cell, written by a single server
// and a coordinator alike, each the cell's grid index as a uvarint and
// then its packed outcome, keyed by the kind-1 header's grid — and
// whether a kind-4 terminal record closes it.
func journalTally(t *testing.T, dataDir string) (keys []string, finished bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dataDir, "sweeps", "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("data dir holds %d journals, want 1: %v", len(paths), paths)
	}
	recs, _, err := journal.ReadAll(paths[0])
	if err != nil {
		t.Fatalf("journal %s unreadable: %v", paths[0], err)
	}
	var grid expt.SweepSpec
	for _, r := range recs {
		switch r.Kind {
		case 1:
			var header struct {
				Spec expt.SweepSpec `json:"spec"`
			}
			if err := json.Unmarshal(r.Data, &header); err != nil {
				t.Fatalf("bad header record: %v", err)
			}
			grid = header.Spec.Normalized()
		case 5:
			i, w := binary.Uvarint(r.Data)
			if w <= 0 || grid.Seeds == nil || i >= uint64(grid.NumCells()) {
				t.Fatalf("cell record %x names no cell of the header's grid", r.Data)
			}
			keys = append(keys, grid.CellAt(int(i)).Key())
		case 4:
			finished = true
		}
	}
	return keys, finished
}

// wholeGroupCells counts the run keys whose (algorithm, workload, n)
// group — the key without its seed — appears seeds times: the cells a
// coordinator merges on resume without a dispatch.
func wholeGroupCells(keys []string, seeds int) int {
	groups := make(map[string]int)
	for _, key := range keys {
		parts := strings.Split(key, "|")
		parts = slices.DeleteFunc(parts, func(p string) bool { return strings.HasPrefix(p, "seed=") })
		groups[strings.Join(parts, "|")]++
	}
	whole := 0
	for _, n := range groups {
		if n == seeds {
			whole += n
		}
	}
	return whole
}

// awaitResumedSweep polls a freshly restarted server until Recover's
// resubmission shows up in the sweep list, and returns its ID.
func awaitResumedSweep(t *testing.T, base string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var list []map[string]json.RawMessage
		if code := getJSON(t, base+"/v1/sweeps", &list); code == http.StatusOK && len(list) > 0 {
			var id string
			var resumed bool
			json.Unmarshal(list[0]["id"], &id)
			json.Unmarshal(list[0]["resumed"], &resumed)
			if !resumed {
				t.Fatalf("recovered sweep %s does not report resumed=true: %v", id, list[0])
			}
			return id
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("restarted server never resubmitted the journaled sweep")
	return ""
}

// TestCrashResumeEndToEnd is the durability acceptance test over a
// real process: a journaling server is SIGKILLed mid-grid, a new
// process on the same data dir resumes the sweep, re-executes ONLY the
// missing cells (proven by the journal metrics), and serves an
// aggregate byte-identical to an uninterrupted run of the same grid.
func TestCrashResumeEndToEnd(t *testing.T) {
	bin := buildServer(t)
	dataDir := t.TempDir()

	const (
		sweepBody = `{"algorithms":["graph-to-star"],"workloads":["line"],"sizes":[4096],"seeds":[1,2,3,4,5,6,7,8]}`
		cells     = 8
	)

	srv1 := launchServer(t, bin, "-data-dir", dataDir)
	id1, code := postSweep(t, srv1.base, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	// Let the grid get provably mid-flight, then kill -9.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, status := sweepState(t, srv1.base, id1)
		var done int
		json.Unmarshal(status["cells_done"], &done)
		if done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first cell never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv1.kill9(t)

	keys, finished := journalTally(t, dataDir)
	journaled := len(keys)
	if finished {
		t.Fatal("sweep finished before the kill; the test needs a mid-grid crash")
	}
	if journaled == 0 || journaled >= cells {
		t.Fatalf("journal holds %d of %d cells; the test needs a mid-grid crash", journaled, cells)
	}

	// Restart on the same data dir: Recover resubmits the sweep with
	// the journal as its done-set.
	srv2 := launchServer(t, bin, "-data-dir", dataDir)
	id2 := awaitResumedSweep(t, srv2.base)
	status := awaitSweep(t, srv2.base, id2, "done")
	var summary struct {
		Cells     int `json:"cells"`
		Executed  int `json:"executed"`
		Errors    int `json:"errors"`
		CacheHits int `json:"cache_hits"`
		Replayed  int `json:"replayed"`
	}
	json.Unmarshal(status["summary"], &summary)
	if summary.Cells != cells || summary.Errors != 0 {
		t.Fatalf("resumed summary = %+v", summary)
	}
	if summary.Replayed != journaled {
		t.Errorf("summary.replayed = %d, want the journal's %d cells", summary.Replayed, journaled)
	}
	if summary.Executed != cells-journaled {
		t.Errorf("summary.executed = %d, want only the %d missing cells", summary.Executed, cells-journaled)
	}

	// The journal metrics prove only the missing run keys re-executed:
	// replayed + engine runs cover the grid exactly.
	m := scrapeMetrics(t, srv2.base)
	replayed, _ := m.Value("adnet_journal_replayed_cells_total", nil)
	runs, _ := m.Value("adnet_engine_runs_total", nil)
	if int(replayed) != journaled {
		t.Errorf("replayed-cell counter = %v, want %d", replayed, journaled)
	}
	if int(runs) != cells-journaled {
		t.Errorf("engine runs after restart = %v, want %d (missing cells only)", runs, cells-journaled)
	}
	if v, _ := m.Value("adnet_journal_resumed_sweeps_total", nil); v != 1 {
		t.Errorf("resumed-sweep counter = %v, want 1", v)
	}

	// Acceptance criterion: byte-identical to an uninterrupted run of
	// the same grid on a fresh, journal-less server.
	resumedGroups := rawAggregateGroups(t, srv2.base, id2)
	ref := launchServer(t, bin)
	refID, code := postSweep(t, ref.base, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST reference sweep = %d", code)
	}
	awaitSweep(t, ref.base, refID, "done")
	refGroups := rawAggregateGroups(t, ref.base, refID)
	if !bytes.Equal(resumedGroups, refGroups) {
		t.Fatalf("resumed aggregate diverged from uninterrupted run:\n%s\nvs\n%s", resumedGroups, refGroups)
	}

	// The finished resume closed its journal with a terminal record: a
	// third process life has nothing to redo.
	if _, finished := journalTally(t, dataDir); !finished {
		t.Fatal("finished resumed sweep left no terminal record")
	}
}

// TestCoordinatorTakeoverEndToEnd is the fleet half of the durability
// story: a journaling coordinator is SIGKILLed after journaling the
// cells of at least one whole (algorithm, workload, n) group; a
// brand-new coordinator process over the same data dir (and the same
// still-running workers) resumes the grid, merges the journaled groups
// without dispatching them, and serves an aggregate byte-identical to
// the same sweep on a single worker.
func TestCoordinatorTakeoverEndToEnd(t *testing.T) {
	bin := buildServer(t)
	dataDir := t.TempDir()
	w1 := launchServer(t, bin)
	w2 := launchServer(t, bin)
	fleetWorkers := w1.base + "," + w2.base

	// Two (algorithm, workload, n) rows → two shards: the small row
	// merges and is journaled while the large one is still running.
	const sweepBody = `{"algorithms":["graph-to-star"],"workloads":["line"],"sizes":[1024,4096],"seeds":[1,2,3,4]}`

	coord1 := launchServer(t, bin, "-coordinator", "-fleet-workers", fleetWorkers, "-data-dir", dataDir)
	if _, code := postSweep(t, coord1.base, sweepBody); code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps to coordinator = %d", code)
	}
	// Wait until the coordinator's own journal metrics show a group's
	// worth of cell records, then kill -9.
	const seeds = 4
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m := scrapeMetrics(t, coord1.base)
		if v, _ := m.Value("adnet_journal_records_total", map[string]string{"kind": "cell"}); v >= seeds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no group was ever journaled")
		}
		time.Sleep(25 * time.Millisecond)
	}
	coord1.kill9(t)

	keys, finished := journalTally(t, dataDir)
	journaled := wholeGroupCells(keys, seeds)
	if finished || journaled == 0 || journaled >= 8 {
		t.Fatalf("journal holds %d cells, %d of them in whole groups (finished=%v); need a mid-grid crash",
			len(keys), journaled, finished)
	}

	coord2 := launchServer(t, bin, "-coordinator", "-fleet-workers", fleetWorkers, "-data-dir", dataDir)
	id := awaitResumedSweep(t, coord2.base)
	status := awaitSweep(t, coord2.base, id, "done")
	var summary struct {
		Cells    int `json:"cells"`
		Errors   int `json:"errors"`
		Replayed int `json:"replayed"`
	}
	json.Unmarshal(status["summary"], &summary)
	if summary.Cells != 8 || summary.Errors != 0 {
		t.Fatalf("takeover summary = %+v", summary)
	}
	if summary.Replayed != journaled {
		t.Errorf("summary.replayed = %d, want the journal's %d cells of whole groups", summary.Replayed, journaled)
	}

	m := scrapeMetrics(t, coord2.base)
	if v, _ := m.Value("adnet_journal_replayed_cells_total", nil); int(v) != journaled {
		t.Errorf("replayed-cell counter = %v, want %d", v, journaled)
	}
	if v, _ := m.Value("adnet_engine_runs_total", nil); v != 0 {
		t.Errorf("takeover coordinator ran %v local simulations, want 0", v)
	}

	// Byte-identical to the same grid swept directly on one worker.
	coordGroups := rawAggregateGroups(t, coord2.base, id)
	refID, code := postSweep(t, w1.base, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST reference sweep to worker = %d", code)
	}
	awaitSweep(t, w1.base, refID, "done")
	refGroups := rawAggregateGroups(t, w1.base, refID)
	if !bytes.Equal(coordGroups, refGroups) {
		t.Fatalf("takeover aggregate diverged from single-worker run:\n%s\nvs\n%s", coordGroups, refGroups)
	}
}

// TestCorruptJournalRefusesStartup pins Recover's strictness end to
// end: a journal with an interior checksum failure (not a torn tail)
// must fail startup with an error naming the corrupt file and offset.
func TestCorruptJournalRefusesStartup(t *testing.T) {
	bin := buildServer(t)
	dataDir := t.TempDir()

	srv := launchServer(t, bin, "-data-dir", dataDir)
	id, code := postSweep(t, srv.base,
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[8,16],"seeds":[1,2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	awaitSweep(t, srv.base, id, "done")
	srv.kill9(t)

	paths, err := filepath.Glob(filepath.Join(dataDir, "sweeps", "*.wal"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("journals = %v (%v)", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 64 {
		t.Fatalf("journal only %d bytes", len(raw))
	}
	// Flip a byte near the middle: an interior record's payload, far
	// from the tail, so this is corruption — not a torn write.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The next process must refuse to start, naming the corruption.
	// Recover runs before the listener binds, so the port is moot.
	logs := &bytes.Buffer{}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatalf("server started over a corrupt journal; logs:\n%s", logs)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("server kept running over a corrupt journal; logs:\n%s", logs)
	}
	out := logs.String()
	if !bytes.Contains([]byte(out), []byte("corrupt at offset")) {
		t.Fatalf("startup failure does not name the corruption offset:\n%s", out)
	}
}
