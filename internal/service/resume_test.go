package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/journal"
)

// journaledCells parses a spec's journal off disk and returns the
// cells it holds — the cells a resumed sweep must NOT re-execute.
func journaledCells(t *testing.T, dataDir string, spec SweepSpec) int {
	t.Helper()
	path := sweepJournalPath(dataDir, spec.Key())
	recs, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatalf("read journal %s: %v", path, err)
	}
	st, err := parseJournal(path, recs, func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.header == nil {
		t.Fatalf("journal %s has no header", path)
	}
	if st.done != nil {
		t.Fatalf("interrupted sweep's journal carries a terminal record: %+v", st.done)
	}
	return st.journaled
}

// journaledRunKeys reads the journal at path off disk and counts the
// cell records naming each run key. A cell record's outcome carries no
// holder flags: a cell journaled as a cache hit does not say so.
func journaledRunKeys(t *testing.T, path string) map[string]int {
	t.Helper()
	recs, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	recs = slices.DeleteFunc(recs, func(r journal.Record) bool {
		return r.Kind != recHeader && r.Kind != recCell && r.Kind != recCellJSON
	})
	keys := make(map[string]int)
	if _, err := parseJournal(path, recs, func(key string, rec []byte) {
		keys[key]++
		if flags, _, _ := expt.ReadOutcome(rec); flags != 0 {
			t.Errorf("journal record of %s carries holder flags %#x", key, flags)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return keys
}

// writeJournal writes a fresh journal file holding recs, in order.
func writeJournal(t *testing.T, path string, recs ...journal.Record) {
	t.Helper()
	lg, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Replay(func(journal.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := lg.Append(rec.Kind, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepJournalResumeAfterInterruption is the in-process version of
// the e2e crash test: a journaled sweep interrupted mid-grid (Close
// cancels it without a terminal record, exactly like a kill would) is
// resubmitted by Recover on a fresh manager over the same data dir,
// re-executes only the missing cells, and folds to an aggregate
// byte-identical to an uninterrupted single-process run.
func TestSweepJournalResumeAfterInterruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := slowSweepSpec(1, 2, 3, 4, 5, 6, 7, 8)
	total := spec.NumCells()

	m1 := NewManager(Config{Workers: 1, SweepWorkers: 1, DataDir: dir})
	j1, err := m1.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the sweep get provably mid-grid, then interrupt it.
	deadline := time.Now().Add(60 * time.Second)
	for j1.Status().CellsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first cell never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1.Close()

	done := journaledCells(t, dir, spec)
	if done == 0 || done >= total {
		t.Fatalf("journal holds %d of %d cells; the test needs a mid-grid interruption", done, total)
	}

	m2 := NewManager(Config{Workers: 1, SweepWorkers: 1, DataDir: dir})
	defer m2.Close()
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Recover resubmits asynchronously; find the resumed job.
	var resumed *SweepJob
	deadline = time.Now().Add(60 * time.Second)
	for resumed == nil {
		if time.Now().After(deadline) {
			t.Fatal("Recover never resubmitted the interrupted sweep")
		}
		for _, st := range m2.Sweeps() {
			if j, ok := m2.GetSweep(st.ID); ok {
				resumed = j
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline = time.Now().Add(120 * time.Second)
	for resumed.State() != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("resumed sweep stuck in %s", resumed.State())
		}
		if s := resumed.State(); s == StateFailed || s == StateCanceled {
			t.Fatalf("resumed sweep ended %s", s)
		}
		time.Sleep(2 * time.Millisecond)
	}

	st := resumed.Status()
	if !st.Resumed {
		t.Error("resumed job does not report resumed=true")
	}
	if st.Summary == nil {
		t.Fatal("no summary on the resumed sweep")
	}
	if st.Summary.Replayed != done {
		t.Errorf("summary replayed = %d, want the journal's %d cells", st.Summary.Replayed, done)
	}
	if st.Summary.Errors != 0 {
		t.Errorf("resumed sweep reported %d cell errors", st.Summary.Errors)
	}
	if st.Summary.Executed != total-done {
		t.Errorf("executed = %d, want only the %d missing cells", st.Summary.Executed, total-done)
	}
	if got := m2.RunsExecuted(); got != int64(total-done) {
		t.Errorf("RunsExecuted = %d, want %d — replayed cells must not re-simulate", got, total-done)
	}

	// The merged aggregate is byte-identical to an uninterrupted run.
	groups, err := resumed.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(groups)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := expt.AggregateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed aggregate diverged from uninterrupted reference:\n%s\nvs\n%s", got, want)
	}

	// The finished resume wrote its terminal record: a third startup
	// has nothing to resume.
	m2.Close()
	path := sweepJournalPath(dir, spec.Key())
	recs, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	stj, err := parseJournal(path, recs, func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if stj.done == nil {
		t.Fatal("finished resumed sweep left no terminal record")
	}
	m3 := NewManager(Config{Workers: 1, DataDir: dir})
	defer m3.Close()
	if err := m3.Recover(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := len(m3.Sweeps()); n != 0 {
		t.Fatalf("recovery after a finished sweep resubmitted %d jobs, want 0", n)
	}
}

// TestResumedSweepJournalsEachRunKeyOnce pins where a sweep's cells
// become durable: the one recording step journals a successful cell
// unless the journal's done-set holds its grid position. A single server is
// interrupted mid-grid, and a single server or a coordinator takes the
// journal over. The grid is one (algorithm, workload, n) group, so a
// coordinator finds its one shard only partly in the done-set and
// dispatches it whole, and journals none of its cells twice. After the
// takeover the journal names every run key of the grid exactly once,
// and a second identical sweep executes nothing.
func TestResumedSweepJournalsEachRunKeyOnce(t *testing.T) {
	t.Parallel()
	for _, mode := range []struct {
		name        string
		coordinator bool
	}{{"single", false}, {"coordinator", true}} {
		coordinator := mode.coordinator
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			spec := slowSweepSpec(1, 2, 3, 4)
			total := spec.NumCells()
			finish := func(j *SweepJob) SweepStatus {
				t.Helper()
				waitFor(t, func() bool { return j.State().terminal() }, "sweep never finished")
				st := j.Status()
				if st.State != StateDone || st.Summary == nil {
					t.Fatalf("sweep ended %s: %+v", st.State, st)
				}
				return st
			}

			m1 := NewManager(Config{Workers: 1, SweepWorkers: 1, DataDir: dir})
			j1, err := m1.SubmitSweep(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return j1.Status().CellsDone > 0 }, "first cell never finished")
			m1.Close()
			done := journaledCells(t, dir, spec)
			if done == 0 || done >= total {
				t.Fatalf("journal holds %d of %d cells; the test needs a mid-grid interruption", done, total)
			}

			cfg := Config{Workers: 1, SweepWorkers: 1, DataDir: dir}
			// A single server replays the done-set and runs the rest; a
			// coordinator dispatches the partly journaled shard whole.
			replayed, executed := done, total-done
			if coordinator {
				worker, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
				cfg.Fleet = fleet.New(fleet.Config{})
				if _, err := cfg.Fleet.Register(t.Context(), worker.URL); err != nil {
					t.Fatal(err)
				}
				replayed, executed = 0, total
			}
			m2 := NewManager(cfg)
			defer m2.Close()
			if err := m2.Recover(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return len(m2.Sweeps()) == 1 }, "Recover never resubmitted the sweep")
			resumed, _ := m2.GetSweep(m2.Sweeps()[0].ID)
			if st := finish(resumed); st.Summary.Replayed != replayed || st.Summary.Executed != executed {
				t.Fatalf("resumed summary = %+v, want %d replayed and %d executed", st.Summary, replayed, executed)
			}

			again, err := m2.SubmitSweep(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := finish(again); st.Summary.Executed != 0 || st.Summary.CacheHits != total {
				t.Fatalf("repeated sweep summary = %+v, want 0 executed and %d cache hits", st.Summary, total)
			}
			// The same cells under another grid key have no journal to
			// replay: the result cache — a worker's, behind a
			// coordinator — answers every one of them.
			reordered, err := m2.SubmitSweep(context.Background(), slowSweepSpec(4, 3, 2, 1))
			if err != nil {
				t.Fatal(err)
			}
			if st := finish(reordered); st.Summary.Executed != 0 || st.Summary.CacheHits != total || st.Summary.Replayed != 0 {
				t.Fatalf("reordered sweep summary = %+v, want %d cache hits and nothing executed or replayed", st.Summary, total)
			}
			if n := m2.RunsExecuted(); coordinator && n != 0 {
				t.Fatalf("coordinator ran %d local simulations, want 0", n)
			}

			keys := journaledRunKeys(t, sweepJournalPath(dir, spec.Key()))
			for _, c := range spec.Cells() {
				if n := keys[c.Key()]; n != 1 {
					t.Errorf("journal names run key %s %d times, want once", c.Key(), n)
				}
			}
			if len(keys) != total {
				t.Errorf("journal names %d run keys, grid has %d", len(keys), total)
			}
		})
	}
}

// TestPendingResumesEndQuietlyOnClose: Recover resubmits more
// interrupted journals than the sweep gate admits, and the manager
// closes at once. Every resume still pending ends without an Error log
// — its journal resumes at the next startup — and Close returns only
// after the last of them gave up.
func TestPendingResumesEndQuietlyOnClose(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.MkdirAll(journalDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	const gate = 1
	for seed := int64(1); seed <= gate+3; seed++ {
		spec := slowSweepSpec(seed)
		header, err := json.Marshal(sweepHeader{Key: spec.Key(), Spec: spec, Cells: spec.NumCells()})
		if err != nil {
			t.Fatal(err)
		}
		writeJournal(t, sweepJournalPath(dir, spec.Key()), journal.Record{Kind: recHeader, Data: header})
	}
	var logs bytes.Buffer // the handler serializes its writes
	m := NewManager(Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: gate, DataDir: dir,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "level=ERROR") {
			t.Errorf("closing with resumes pending logged an error: %s", line)
		}
	}
}

// TestRunAfterRecoveredSweepExecutes is the recovery twin of the
// post-sweep block in TestSweepJobPerCellCacheHits: Recover rebuilds a
// finished sweep's journaled cells into the result cache as outcomes
// without streams, so a run of one of them on the restarted server
// executes in full instead of being answered done with nothing to
// stream.
func TestRunAfterRecoveredSweepExecutes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := sweepSpec()

	srv1, m1 := newTestServer(t, Config{Workers: 1, SweepWorkers: 2, DataDir: dir})
	job, _ := postSweepJob(t, srv1, spec)
	awaitSweepState(t, srv1, job.ID, StateDone)
	cells, _ := readCells(t, srv1, job.ID)
	m1.Close()

	srv2, m2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	if size := m2.Stats().CacheSize; size != len(cells) {
		t.Fatalf("recovery cached %d outcomes, want the sweep's %d cells", size, len(cells))
	}
	cell := cells[3] // graph-to-star/line/24/seed 2
	checkRunAfterOutcomeOnlyEntry(t, srv2,
		RunSpec{Algorithm: cell.Algorithm, Workload: cell.Workload, N: cell.N, Seed: cell.Seed}, *cell.Outcome)
	if got := m2.RunsExecuted(); got != 1 {
		t.Fatalf("RunsExecuted = %d on the restarted server, want 1", got)
	}
}

// TestRecoverRefusesCorruptJournal pins the strictness split: a
// mid-file checksum mismatch (not a torn tail) must fail Recover — and
// with it startup — naming the file and offset, never silently serve a
// journal state that never existed.
func TestRecoverRefusesCorruptJournal(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.MkdirAll(journalDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec()
	path := sweepJournalPath(dir, spec.Key())
	header, _ := json.Marshal(sweepHeader{Key: spec.Key(), Spec: spec, Cells: spec.NumCells()})
	payload := expt.AppendOutcome(binary.AppendUvarint(nil, 0), 0, &expt.Outcome{N: 24})
	writeJournal(t, path, journal.Record{Kind: recHeader, Data: header},
		journal.Record{Kind: recCell, Data: payload}, journal.Record{Kind: recCell, Data: payload})

	// Flip one payload byte of the MIDDLE record: an interior checksum
	// failure, not a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	middle := 8 + len(header) + 1 + 8 + 4 // into record 1's payload
	raw[middle] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewManager(Config{Workers: 1, DataDir: dir})
	defer m.Close()
	err = m.Recover()
	if err == nil {
		t.Fatal("Recover accepted a journal with an interior checksum failure")
	}
	if !strings.Contains(err.Error(), "corrupt at offset") || !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the corruption offset and file", err)
	}
}

// TestOldJournalsResume: journals written before the packed cell
// record still resume. The golden JSON cell record decodes to its run
// key and outcome, and a hand-written journal — a header, JSON cell
// records and a legacy shard record with an error cell — resumes on a
// single server: its three ok cells replay, the other five execute and
// are journaled as packed records, and the aggregate is byte-identical
// to an uninterrupted run's.
func TestOldJournalsResume(t *testing.T) {
	t.Parallel()
	var golden SweepCell
	if err := json.Unmarshal([]byte(okLine), &golden); err != nil {
		t.Fatal(err)
	}
	filed := make(map[string]expt.Outcome)
	file := func(key string, rec []byte) {
		_, out, err := expt.ReadOutcome(rec)
		if err != nil {
			t.Fatal(err)
		}
		filed[key] = out
	}
	if _, err := parseJournal("golden.wal", []journal.Record{{Kind: recCellJSON, Data: []byte(cellRecordJSON)}}, file); err != nil {
		t.Fatal(err)
	}
	if out, ok := filed["flood|line|n=32|seed=1|maxr=0"]; len(filed) != 1 || !ok || out != *golden.Outcome {
		t.Fatalf("golden cell record filed %+v, want the ok cell line's outcome under its run key", filed)
	}

	spec := SweepSpec{
		Algorithms: []string{"flood", "graph-to-star"},
		Workloads:  []string{"line"},
		Sizes:      []int{32, 64},
		Seeds:      []int64{1, 2},
	}
	const (
		header = `{"key":"sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=0","spec":{"algorithms":["flood","graph-to-star"],"workloads":["line"],"sizes":[32,64],"seeds":[1,2]},"cells":8}`
		cell2  = `{"run_key":"flood|line|n=64|seed=1|maxr=0","cell":{"index":2,"algorithm":"flood","workload":"line","n":64,"seed":1,"from_cache":false,"outcome":{"N":64,"Rounds":65,"LastActivity":0,"TotalActivations":0,"MaxActivatedEdges":0,"MaxActivatedDegree":0,"TotalMessages":6206,"FinalDiameter":63,"FinalDepth":63,"LeaderOK":true}}}`
		cell7  = `{"run_key":"graph-to-star|line|n=64|seed=2|maxr=0","cell":{"index":7,"algorithm":"graph-to-star","workload":"line","n":64,"seed":2,"from_cache":false,"outcome":{"N":64,"Rounds":81,"LastActivity":81,"TotalActivations":315,"MaxActivatedEdges":123,"MaxActivatedDegree":62,"TotalMessages":2520,"FinalDiameter":2,"FinalDepth":1,"LeaderOK":true}}}`
		shard2 = `{"key":"sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=0|shard=2|off=4|cells=2","index":2,"offset":4,"cells":[` +
			`{"index":4,"algorithm":"graph-to-star","workload":"line","n":32,"seed":1,"from_cache":false,"outcome":{"N":32,"Rounds":73,"LastActivity":73,"TotalActivations":124,"MaxActivatedEdges":59,"MaxActivatedDegree":30,"TotalMessages":1116,"FinalDiameter":2,"FinalDepth":1,"LeaderOK":true}},` +
			`{"index":5,"algorithm":"graph-to-star","workload":"line","n":32,"seed":2,"from_cache":false,"error":"expt: cell skipped: sim: run canceled"}]}`
	)
	dir := t.TempDir()
	if err := os.MkdirAll(journalDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	path := sweepJournalPath(dir, spec.Key())
	writeJournal(t, path, journal.Record{Kind: recHeader, Data: []byte(header)},
		journal.Record{Kind: recCellJSON, Data: []byte(cell2)}, journal.Record{Kind: recShard, Data: []byte(shard2)},
		journal.Record{Kind: recCellJSON, Data: []byte(cell7)})

	m := NewManager(Config{Workers: 1, SweepWorkers: 1, DataDir: dir})
	defer m.Close()
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(m.Sweeps()) == 1 }, "Recover never resubmitted the sweep")
	resumed, _ := m.GetSweep(m.Sweeps()[0].ID)
	waitFor(t, func() bool { return resumed.State().terminal() }, "the resumed sweep never finished")
	if st := resumed.Status(); st.State != StateDone || !st.Resumed || st.Summary.Replayed != 3 || st.Summary.Executed != 5 ||
		st.Summary.Errors != 0 || m.RunsExecuted() != 5 {
		t.Fatalf("resumed status = %+v, summary %+v, %d runs; want 3 replayed and 5 executed", st, st.Summary, m.RunsExecuted())
	}
	groups, err := resumed.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := expt.AggregateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(groups)
	if want, _ := json.Marshal(ref); !bytes.Equal(got, want) {
		t.Fatalf("resumed aggregate is\n%s\nwant the uninterrupted\n%s", got, want)
	}
	// The JSON records still name cells 2 and 7, the shard record names
	// no cell; the resume journaled every other cell once.
	keys := journaledRunKeys(t, path)
	for i, c := range spec.Cells() {
		if want := map[bool]int{true: 0, false: 1}[i == 4]; keys[c.Key()] != want {
			t.Errorf("cell records name run key %s %d times, want %d", c.Key(), keys[c.Key()], want)
		}
	}
}

// TestRecoverRefusesBadCellIndices: a journal cell whose grid index
// the header's grid does not have — or that comes before any header —
// fails Recover with the file and the record's offset, like any other
// undecodable record.
func TestRecoverRefusesBadCellIndices(t *testing.T) {
	t.Parallel()
	spec := sweepSpec()
	header, _ := json.Marshal(sweepHeader{Key: spec.Key(), Spec: spec, Cells: spec.NumCells()})
	out := expt.Outcome{N: 16, Rounds: 17, LeaderOK: true}
	packed := func(i uint64) []byte { return expt.AppendOutcome(binary.AppendUvarint(nil, i), 0, &out) }
	second := int64(8 + 1 + len(header)) // the header record's framing, kind byte and payload
	for _, tc := range []struct {
		name   string
		recs   []journal.Record
		offset int64
	}{
		{"legacy shard before the grid's start", []journal.Record{{Kind: recHeader, Data: header},
			{Kind: recShard, Data: []byte(`{"offset":-1,"cells":[` + okLine + `]}`)}}, second},
		{"packed cell before any header", []journal.Record{{Kind: recCell, Data: packed(0)},
			{Kind: recHeader, Data: header}}, 0},
		{"packed cell past the grid's end", []journal.Record{{Kind: recHeader, Data: header},
			{Kind: recCell, Data: packed(uint64(spec.NumCells()))}}, second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			if err := os.MkdirAll(journalDir(dir), 0o755); err != nil {
				t.Fatal(err)
			}
			path := sweepJournalPath(dir, spec.Key())
			writeJournal(t, path, tc.recs...)
			m := NewManager(Config{Workers: 1, DataDir: dir})
			defer m.Close()
			err := m.Recover()
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("at offset %d:", tc.offset)) {
				t.Fatalf("Recover = %v, want a refusal naming %s and offset %d", err, path, tc.offset)
			}
		})
	}
}

// TestResumeReplaysEveryJournaledCell: a resumed sweep answers its
// journaled cells from the records its journal holds, by grid position,
// whatever the outcome index holds — an index of one outcome, which the
// journal's outcomes overflow, no index at all (CacheSize < 0), and no
// index on a coordinator. Nothing executes and no shard is dispatched,
// every cell counts as replayed, each run key stays journaled once, and
// the sweep folds to the uninterrupted aggregate.
func TestResumeReplaysEveryJournaledCell(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name        string
		cacheSize   int
		coordinator bool
	}{{"one-entry index", 1, false}, {"no index", -1, false}, {"no index on a coordinator", -1, true}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			spec := sweepSpec()
			total := spec.NumCells()
			path := sweepJournalPath(dir, spec.Key())

			// A finished sweep's journal without its terminal record:
			// every cell journaled, the grid not done. The same cells in
			// another order ran first, so each is journaled as a cache hit.
			m1 := NewManager(Config{Workers: 1, SweepWorkers: 2, DataDir: dir})
			reordered := spec
			reordered.Seeds = slices.Clone(spec.Seeds)
			slices.Reverse(reordered.Seeds)
			for _, s := range []SweepSpec{reordered, spec} {
				j1, err := m1.SubmitSweep(context.Background(), s)
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, func() bool { return j1.State().terminal() }, "first sweeps never finished")
			}
			m1.Close()
			recs, _, err := journal.ReadAll(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			writeJournal(t, path, slices.DeleteFunc(recs, func(r journal.Record) bool { return r.Kind == recDone })...)

			// No cap on the grid, so the index is CacheSize entries.
			cfg := Config{Workers: 1, SweepWorkers: 1, CacheSize: tc.cacheSize, MaxSweepCells: -1, DataDir: dir}
			var worker *Manager
			if tc.coordinator {
				var srv *httptest.Server
				srv, worker = newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
				cfg.Fleet = fleet.New(fleet.Config{})
				if _, err := cfg.Fleet.Register(t.Context(), srv.URL); err != nil {
					t.Fatal(err)
				}
			}
			m2 := NewManager(cfg)
			defer m2.Close()
			if err := m2.Recover(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return len(m2.Sweeps()) == 1 }, "Recover never resubmitted the sweep")
			resumed, _ := m2.GetSweep(m2.Sweeps()[0].ID)
			waitFor(t, func() bool { return resumed.State().terminal() }, "the resumed sweep never finished")
			st := resumed.Status()
			if st.State != StateDone || !st.Resumed || st.Summary.Errors != 0 || st.Summary.Executed != 0 ||
				st.Summary.Replayed != total || st.Summary.CacheHits != total || m2.RunsExecuted() != 0 {
				t.Fatalf("resumed status = %+v, summary %+v, %d runs; want all %d cells replayed and none executed",
					st, st.Summary, m2.RunsExecuted(), total)
			}
			if worker != nil && (len(worker.Sweeps()) != 0 || worker.RunsExecuted() != 0) {
				t.Fatalf("the coordinator dispatched %d shards, want none", len(worker.Sweeps()))
			}
			groups, err := resumed.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := expt.AggregateSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(groups)
			if want, _ := json.Marshal(ref); !bytes.Equal(got, want) {
				t.Fatalf("resumed aggregate is\n%s\nwant the uninterrupted\n%s", got, want)
			}
			keys := journaledRunKeys(t, path)
			for _, c := range spec.Cells() {
				if n := keys[c.Key()]; n != 1 {
					t.Errorf("journal names run key %s %d times, want once", c.Key(), n)
				}
			}
			if len(keys) != total {
				t.Errorf("journal names %d run keys, grid has %d", len(keys), total)
			}
		})
	}
}

// TestJournalBytesPerCell pins what a journaled sweep-single grid
// appends per cell — a packed cell record, its grid index and outcome
// — against the JSON cell record that replaced it, which named the run
// key and repeated the whole /cells line.
func TestJournalBytesPerCell(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	spec := sweepSingleGrid()
	m := NewManager(Config{Workers: 1, SweepWorkers: 2, DataDir: dir})
	j, err := m.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for !j.State().terminal() { // 1,024 cells: slow under -race
		time.Sleep(time.Millisecond)
	}
	m.Close()
	recs, _, err := journal.ReadAll(sweepJournalPath(dir, spec.Key()))
	if err != nil {
		t.Fatal(err)
	}
	grid := spec.Normalized()
	var cells, packed, asJSON int
	for _, r := range recs {
		if r.Kind != recCell {
			continue
		}
		i, w := binary.Uvarint(r.Data)
		_, out, err := expt.ReadOutcome(r.Data[w:])
		if err != nil {
			t.Fatal(err)
		}
		c := grid.CellAt(int(i))
		old, _ := json.Marshal(cellRecord{RunKey: c.Key(), Cell: SweepCell{Index: int(i), Algorithm: c.Algorithm, Workload: c.Workload,
			N: c.N, Seed: c.Seed, MaxRounds: c.MaxRounds, Outcome: &out}})
		cells, packed, asJSON = cells+1, packed+len(r.Data), asJSON+len(old)
	}
	t.Logf("%d cells: %d B packed (%.1f B a cell), %d B as JSON cell records (%.1f B a cell)",
		cells, packed, float64(packed)/float64(cells), asJSON, float64(asJSON)/float64(cells))
	const wantPacked = 22528
	if cells != spec.NumCells() || packed != wantPacked || 5*packed > asJSON {
		t.Errorf("journaled %d cells in %d B, want %d cells in %d B, at most a fifth of the %d B JSON records take",
			cells, packed, spec.NumCells(), wantPacked, asJSON)
	}
}
