package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"adnet/internal/expt"
	"adnet/internal/journal"
)

// Sweep journal record kinds. Header and done payloads are JSON, a
// cell's is packed; the kind byte routes them without parsing. New
// kinds append — replay skips kinds it does not know, so old servers
// tolerate newer journals.
const (
	recHeader   byte = 1 // sweepHeader: written once at submission
	recCellJSON byte = 2 // cellRecord: read from older journals, never written
	recShard    byte = 3 // legacyShardRecord: read from older coordinators' journals, never written
	recDone     byte = 4 // doneRecord: the sweep reached a terminal state
	// recCell is one finished ok cell, a single server's or a
	// coordinator's alike: uvarint(grid index), then the cell's
	// outcome record (expt.AppendOutcome, no flags). Its run key is
	// the header grid's cell at the index. Error cells are never
	// journaled — a resumed sweep retries them.
	recCell byte = 5
)

// recKindLabel maps a record kind to its metric label.
func recKindLabel(kind byte) string {
	switch kind {
	case recHeader:
		return "header"
	case recCell:
		return "cell"
	case recCellJSON:
		return "json cell"
	case recShard:
		return "shard"
	case recDone:
		return "done"
	}
	return "unknown"
}

// sweepHeader opens every journal: the spec is enough to resubmit the
// sweep after a crash, the key pins the file to its grid (the filename
// is a hash of it), and Cells records the expected grid volume.
type sweepHeader struct {
	Key   string    `json:"key"`
	Spec  SweepSpec `json:"spec"`
	Cells int       `json:"cells"`
}

// cellRecord is what servers journaled per finished ok cell before
// recCell, keyed by its canonical run key. It is still read.
type cellRecord struct {
	RunKey string    `json:"run_key"`
	Cell   SweepCell `json:"cell"`
}

// legacyShardRecord is what coordinators journaled per completed shard
// before they wrote cell records. Replay takes its successful cells at
// their grid positions (a wire cell carries no dynamics block), so
// only a shard with an error cell re-dispatches.
type legacyShardRecord struct {
	Offset int         `json:"offset"`
	Cells  []SweepCell `json:"cells"`
}

// doneRecord closes a journal: the sweep reached a terminal state and
// must not be auto-resumed at the next startup. It is deliberately NOT
// written when the manager is shutting down — a graceful-shutdown
// cancellation is an interruption, not a result, and resumes like a
// crash would.
type doneRecord struct {
	State   JobState     `json:"state"`
	Summary SweepSummary `json:"summary"`
}

// sweepJournal binds one sweep job to its write-ahead log. Append
// failures degrade durability, never correctness: they are logged and
// the sweep continues in-memory-only.
type sweepJournal struct {
	log     *journal.Log
	mt      *metrics
	logger  *slog.Logger
	release func()
}

func (sj *sweepJournal) append(kind byte, data []byte) {
	if err := sj.log.Append(kind, data); err != nil {
		sj.logger.Error("sweep journal append failed",
			slog.String("path", sj.log.Path()),
			slog.String("kind", recKindLabel(kind)),
			slog.String("error", err.Error()))
		return
	}
	sj.mt.journalRecords.With(recKindLabel(kind)).Inc()
	sj.mt.journalBytes.Add(int64(len(data)))
}

// sync flushes at milestones (header, the end of each (algorithm,
// workload, n) group, sweep terminal). Per-cell appends rely on the
// page cache — they survive a process kill without an fsync; only a
// machine crash can lose them, and replay tolerates the resulting torn
// tail.
func (sj *sweepJournal) sync() { _ = sj.log.Sync() }

func (sj *sweepJournal) close() {
	_ = sj.log.Close()
	if sj.release != nil {
		sj.release()
	}
}

// journalState is one journal's parsed content: the intact prefix
// folded down to the latest header, the outcome record of each cell
// of its grid (nil for a cell it holds none for; journaled counts the
// others), and the terminal record if the sweep finished.
type journalState struct {
	header    *sweepHeader
	cells     [][]byte
	journaled int
	done      *doneRecord
}

// parseJournal folds recs, the records of the journal at path, handing
// file each finished cell's run key and outcome record. A cell the
// latest header's grid has no index for is refused like an undecodable
// record; a JSON cell record not in that grid is only filed.
func parseJournal(path string, recs []journal.Record, file func(key string, rec []byte)) (journalState, error) {
	var st journalState
	var grid SweepSpec // the header's, normalized, which keys cell and shard records
	addAt := func(at int, rec []byte) error {
		if at < 0 || at >= len(st.cells) {
			return fmt.Errorf("cell %d is outside the header's %d-cell grid", at, len(st.cells))
		}
		if st.cells[at] == nil {
			st.journaled++
		}
		st.cells[at] = rec
		file(grid.CellAt(at).Key(), rec)
		return nil
	}
	for _, r := range recs {
		var err error
		switch r.Kind {
		case recHeader:
			var h sweepHeader
			if err = json.Unmarshal(r.Data, &h); err == nil {
				st.header, grid = &h, h.Spec.Normalized()
				st.cells, st.journaled = make([][]byte, h.Spec.NumCells()), 0
			}
		case recCell:
			at, w := binary.Uvarint(r.Data)
			if w <= 0 {
				err = errors.New("bad cell index")
			} else if _, _, err = expt.ReadOutcome(r.Data[w:]); err == nil {
				err = addAt(int(at), r.Data[w:])
			}
		case recCellJSON:
			var c cellRecord
			if err = json.Unmarshal(r.Data, &c); err == nil && c.Cell.Outcome != nil && c.Cell.Error == "" {
				rec, at := expt.AppendOutcome(nil, 0, c.Cell.Outcome), c.Cell.Index
				if at >= 0 && at < len(st.cells) && grid.CellAt(at).Key() == c.RunKey {
					err = addAt(at, rec)
				} else {
					file(c.RunKey, rec)
				}
			}
		case recShard:
			var s legacyShardRecord
			if err = json.Unmarshal(r.Data, &s); err == nil {
				for i, c := range s.Cells {
					if c.Outcome != nil && c.Error == "" {
						if err = addAt(s.Offset+i, expt.AppendOutcome(nil, 0, c.Outcome)); err != nil {
							break
						}
					}
				}
			}
		case recDone:
			var d doneRecord
			if err = json.Unmarshal(r.Data, &d); err == nil {
				st.done = &d
			}
		default:
			// Unknown kind: a newer writer's record; skip.
		}
		if err != nil {
			// The record passed its checksum, so this is version skew or
			// an impossible encode — surface it, do not guess.
			return st, fmt.Errorf("journal: %s: bad %s record at offset %d: %w",
				path, recKindLabel(r.Kind), r.Offset, err)
		}
	}
	return st, nil
}

// journalDir is where sweep journals live under a data dir.
func journalDir(dataDir string) string {
	return filepath.Join(dataDir, "sweeps")
}

// sweepJournalPath names the journal of the grid with key under
// dataDir by a 16-hex-digit digest of the key: long enough that grids
// sharing a data dir never collide in practice, short enough for
// directory listings to stay readable. The name is an on-disk
// contract — a restarted server finds a grid's journal by it.
func sweepJournalPath(dataDir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(journalDir(dataDir), hex.EncodeToString(sum[:8])+".wal")
}

// openSweepJournal attaches j to its on-disk journal: replay whatever
// a previous life of the same grid left behind — cell records into the
// job's done-set and the outcome index — then write the header if the
// file is fresh. All failure paths degrade to an unjournaled sweep
// (logged) — submission must not fail because the disk does.
// Strictness about corrupt files lives in Recover, where it can stop a
// startup.
func (m *Manager) openSweepJournal(j *SweepJob) {
	key := j.Spec.Key()
	if err := os.MkdirAll(journalDir(m.cfg.DataDir), 0o755); err != nil {
		m.logger.Error("sweep journal dir unavailable; running unjournaled",
			slog.String("sweep_id", j.ID), slog.String("error", err.Error()))
		return
	}
	m.mu.Lock()
	if _, busy := m.openJournals[key]; busy {
		m.mu.Unlock()
		// A second concurrent sweep over the same grid: the first owns
		// the journal; this one runs unjournaled rather than interleave
		// two writers in one file.
		m.logger.Warn("sweep journal already owned by a concurrent sweep; running unjournaled",
			slog.String("sweep_id", j.ID))
		return
	}
	m.openJournals[key] = struct{}{}
	m.mu.Unlock()
	release := func() {
		m.mu.Lock()
		delete(m.openJournals, key)
		m.mu.Unlock()
	}

	path := sweepJournalPath(m.cfg.DataDir, key)
	lg, err := journal.Open(path)
	if err != nil {
		release()
		m.logger.Error("sweep journal open failed; running unjournaled",
			slog.String("sweep_id", j.ID), slog.String("error", err.Error()))
		return
	}
	var recs []journal.Record
	torn, err := lg.Replay(func(r journal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err == nil {
		var st journalState
		st, err = parseJournal(path, recs, m.outcomes.Add)
		if err == nil && st.header != nil && st.header.Key != key {
			err = fmt.Errorf("journal: %s belongs to a different grid (%s)", path, st.header.Key)
		}
		if err == nil {
			if torn {
				m.metrics.journalTorn.Inc()
			}
			sj := &sweepJournal{log: lg, mt: m.metrics, logger: m.logger, release: release}
			if st.header == nil {
				header, _ := json.Marshal(sweepHeader{Key: key, Spec: j.Spec, Cells: j.Spec.NumCells()})
				sj.append(recHeader, header)
				sj.sync()
			}
			j.mu.Lock()
			j.journal = sj
			if st.header != nil {
				j.resumed, j.done = true, st.cells
			}
			j.mu.Unlock()
			if st.header != nil && st.done == nil {
				m.metrics.journalResumedSweeps.Inc()
				m.logger.Info("sweep resuming from journal",
					slog.String("sweep_id", j.ID),
					slog.Int("journaled_cells", st.journaled))
			}
			return
		}
	}
	_ = lg.Close()
	release()
	m.logger.Error("sweep journal unusable; running unjournaled",
		slog.String("sweep_id", j.ID), slog.String("error", err.Error()))
}

// Recover scans every sweep journal under DataDir: finished cells'
// outcomes are filed in the outcome index (journals do not persist
// round streams, so they answer later sweep cells, not run
// submissions), and every journal without a terminal record is
// resubmitted as a fresh sweep job, whose done-set it reads again. A
// corrupt journal (mid-file checksum failure, unparseable record)
// fails recovery — and with it startup — naming the file and offset:
// silently skipping interior records would serve a state that never
// existed. Call Recover once, after the manager (and in coordinator
// mode the worker registry) is up but before serving traffic; it is a
// no-op without a DataDir.
func (m *Manager) Recover() error {
	if m.cfg.DataDir == "" {
		return nil
	}
	dir := journalDir(m.cfg.DataDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: recover: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return fmt.Errorf("service: recover: %w", err)
	}
	sort.Strings(paths)
	var resume []SweepSpec
	for _, p := range paths {
		recs, torn, err := journal.ReadAll(p)
		if err != nil {
			return fmt.Errorf("service: recover: %w", err)
		}
		if torn {
			m.metrics.journalTorn.Inc()
		}
		st, err := parseJournal(p, recs, m.outcomes.Add)
		if err != nil {
			return fmt.Errorf("service: recover: %w", err)
		}
		if st.header == nil {
			continue // empty file (e.g. torn before the header landed)
		}
		m.logger.Info("sweep journal recovered",
			slog.String("path", p),
			slog.Int("cells", st.journaled),
			slog.Bool("torn", torn),
			slog.Bool("finished", st.done != nil))
		if st.done == nil {
			resume = append(resume, st.header.Spec)
		}
	}
	m.sweepWG.Add(len(resume))
	for _, spec := range resume {
		go m.resumeSweep(spec)
	}
	return nil
}

// resumeSweep resubmits an interrupted grid, pacing retries through
// the sweep gate: more incomplete journals than MaxConcurrentSweeps
// simply queue up behind it. A manager that closes first ends the wait
// quietly — its journals resume at the next startup — and Close waits
// for every pending resume to give up.
func (m *Manager) resumeSweep(spec SweepSpec) {
	defer m.sweepWG.Done()
	for {
		j, err := m.SubmitSweep(context.Background(), spec)
		switch {
		case err == nil:
			m.logger.Info("sweep resume submitted", slog.String("sweep_id", j.ID))
			return
		case errors.Is(err, ErrClosed):
			return
		case errors.Is(err, ErrSweepBusy):
			time.Sleep(200 * time.Millisecond)
		default:
			m.logger.Error("sweep resume failed", slog.String("error", err.Error()))
			return
		}
	}
}
