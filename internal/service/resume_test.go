package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/journal"
	"adnet/internal/runkey"
)

// journaledCells parses a spec's journal off disk and returns its
// done-set size — the cells a resumed sweep must NOT re-execute.
func journaledCells(t *testing.T, dataDir string, spec SweepSpec) int {
	t.Helper()
	path := filepath.Join(dataDir, "sweeps", runkey.Hash(spec.Key())+".wal")
	recs, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatalf("read journal %s: %v", path, err)
	}
	st, err := parseJournal(path, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.header == nil {
		t.Fatalf("journal %s has no header", path)
	}
	if st.done != nil {
		t.Fatalf("interrupted sweep's journal carries a terminal record: %+v", st.done)
	}
	return len(st.cells)
}

// journaledRunKeys reads the journal at path off disk and counts the
// cell records naming each run key.
func journaledRunKeys(t *testing.T, path string) map[string]int {
	t.Helper()
	recs, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]int)
	for _, r := range recs {
		if r.Kind != recCell {
			continue
		}
		var c cellRecord
		if err := json.Unmarshal(r.Data, &c); err != nil {
			t.Fatal(err)
		}
		keys[c.RunKey]++
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
	path := filepath.Join(dir, "sweeps", runkey.Hash(spec.Key())+".wal")
	recs, _, err := journal.ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	stj, err := parseJournal(path, recs)
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
// unless its run key is in the journal's done-set. A single server is
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

			keys := journaledRunKeys(t, filepath.Join(dir, "sweeps", runkey.Hash(spec.Key())+".wal"))
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
	sweepDir := filepath.Join(dir, "sweeps")
	if err := os.MkdirAll(sweepDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const gate = 1
	for seed := int64(1); seed <= gate+3; seed++ {
		spec := slowSweepSpec(seed)
		header, err := json.Marshal(sweepHeader{Key: spec.Key(), Spec: spec, Cells: spec.NumCells()})
		if err != nil {
			t.Fatal(err)
		}
		writeJournal(t, filepath.Join(sweepDir, runkey.Hash(spec.Key())+".wal"), journal.Record{Kind: recHeader, Data: header})
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
	sweepDir := filepath.Join(dir, "sweeps")
	if err := os.MkdirAll(sweepDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := sweepSpec()
	path := filepath.Join(sweepDir, runkey.Hash(spec.Key())+".wal")
	header, _ := json.Marshal(sweepHeader{Key: spec.Key(), Spec: spec, Cells: spec.NumCells()})
	payload, _ := json.Marshal(cellRecord{RunKey: "k"})
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
