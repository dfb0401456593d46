package service

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/obs"
	"adnet/internal/sim"
)

// Sweep submission/aggregation errors surfaced to the API layer.
var (
	// ErrSweepBusy is returned when the concurrent-sweep limit is reached.
	ErrSweepBusy = errors.New("service: too many concurrent sweeps")
	// ErrSweepRunning rejects aggregation of a sweep that has not
	// reached a terminal state yet.
	ErrSweepRunning = errors.New("service: sweep still running")
)

// SweepJob tracks one submitted SweepSpec grid through the same
// lifecycle as a run Job: queued → running → done/failed/canceled.
// Finished cells are retained as the packed records of the job's cell
// log (bounded by the sweep-cell limit) so any number of late
// subscribers can replay them; executed cells' outcomes additionally
// land in the manager's outcome index under their canonical run keys.
type SweepJob struct {
	ID   string
	Spec SweepSpec

	// grid is Spec normalized: record i of cells is the grid's cell i
	// (grid.CellAt), whose parameters the record does not store.
	grid SweepSpec
	// cells is the log behind /cells, one record per finished cell in
	// canonical order (cells.go) — the only form the job keeps of them.
	cells *frameLog
	// scratch is the producer's packing and rendering buffer, dropped
	// when the sweep ends; packed observes each packing (the encode
	// instruments on /metrics).
	scratch []byte
	packed  func(time.Duration)

	// Durability: journal is the job's write-ahead log (nil without a
	// DataDir); done[i] is the outcome record it held for cell i at
	// submission, nil if none — its done-set, read-only while the grid
	// runs; resumed marks a job whose journal carried prior work.
	journal *sweepJournal
	done    [][]byte
	resumed bool

	lifecycle
	summary *SweepSummary
}

// SweepStatus is the JSON-facing snapshot of a SweepJob.
type SweepStatus struct {
	ID    string    `json:"id"`
	Spec  SweepSpec `json:"spec"`
	State JobState  `json:"state"`
	// Cells is the grid volume; CellsDone counts cells already
	// finished and streamed.
	Cells     int `json:"cells"`
	CellsDone int `json:"cells_done"`
	// StreamBytes is the bytes /cells serves for the finished cells,
	// summary line excluded — more than the sweep holds for them, one
	// packed record a cell.
	StreamBytes int64 `json:"stream_bytes"`
	// Resumed marks a job whose journal carried work from a previous
	// process life: only the cells it misses execute.
	Resumed bool          `json:"resumed,omitempty"`
	Summary *SweepSummary `json:"summary,omitempty"`
	jobTimes
}

// Status snapshots the sweep job.
func (j *SweepJob) Status() SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SweepStatus{
		ID:          j.ID,
		Spec:        j.Spec,
		State:       j.state,
		Cells:       j.Spec.NumCells(),
		CellsDone:   j.cells.Len(),
		StreamBytes: j.cells.FrameBytes(),
		Resumed:     j.resumed,
		jobTimes:    j.times,
	}
	if j.summary != nil {
		s := *j.summary
		st.Summary = &s
	}
	return st
}

// finish publishes the terminal state, summary and error in one
// critical section: a status poll must never observe a summary (or
// error) on a still-running sweep — clients treat summary presence as
// completion.
func (j *SweepJob) finish(state JobState, sum SweepSummary, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.summary = &sum
	j.finishLocked(state, err)
}

// Aggregate folds the sweep's finished cells into per-(algorithm,
// workload, n) statistics over seeds — the cells it executed, or in
// coordinator mode the cells its workers streamed, which fold to the
// same bytes. Only terminal sweeps aggregate (ErrSweepRunning
// otherwise); a canceled or failed sweep aggregates the cells that did
// finish, with the rest counted as group errors.
func (j *SweepJob) Aggregate() ([]expt.AggregateGroup, error) {
	if !j.State().terminal() {
		return nil, ErrSweepRunning
	}
	// A terminal sweep has recorded every cell it will (the log closes
	// right after), so one read from cursor 0 is the whole log.
	recs, _ := j.cells.WaitFrames(context.Background(), 0)
	results := make([]expt.CellResult, len(recs))
	for i, rec := range recs {
		fromCache, out, errText, err := decodeCell(rec)
		if err != nil {
			return nil, fmt.Errorf("service: cell record %d: %w", i, err)
		}
		results[i] = expt.WireCellResult(i, j.grid.CellAt(i), fromCache, &out, errText)
	}
	return expt.Aggregate(results), nil
}

// SubmitSweep validates spec and registers a fire-and-forget sweep
// job: the call returns as soon as the job exists, the grid runs on
// its own engine fleet in the background. Concurrent sweeps are
// bounded by cfg.MaxConcurrentSweeps; beyond that SubmitSweep fails
// fast with ErrSweepBusy. ctx is the submission's context: the job's
// context takes its request ID (when present), for log correlation and
// coordinator→worker propagation, but not its cancellation — ending
// the request does NOT cancel the sweep.
func (m *Manager) SubmitSweep(ctx context.Context, spec SweepSpec) (*SweepJob, error) {
	if err := validateSweep(spec, m.cfg.MaxN, m.cfg.MaxSweepCells); err != nil {
		return nil, fmt.Errorf("service: invalid sweep: %w", err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	select {
	case m.sweepGate <- struct{}{}:
	default:
		m.mu.Unlock()
		m.metrics.sweepRejections.Inc()
		return nil, ErrSweepBusy
	}
	j := &SweepJob{
		ID:        fmt.Sprintf("sweep-%06d-%s", m.seq.Add(1), shortHash(spec.Key())),
		Spec:      spec,
		grid:      spec.Normalized(),
		cells:     newFrameLog(spec.NumCells()),
		done:      make([][]byte, spec.NumCells()),
		packed:    m.metrics.cellsObs,
		lifecycle: queued(obs.ContextWithRequestID(context.Background(), obs.RequestIDFromContext(ctx))),
	}
	m.sweeps.add(j.ID, j)
	m.sweepWG.Add(1)
	m.mu.Unlock()
	m.metrics.sweepsActive.Inc()
	if m.cfg.DataDir != "" {
		// Attach the write-ahead journal (and replay any previous
		// life's done-set) before execution starts; failures degrade to
		// an unjournaled sweep, never a rejected submission.
		m.openSweepJournal(j)
	}
	m.logger.InfoContext(ctx, "sweep accepted",
		slog.String("sweep_id", j.ID),
		slog.Int("cells", j.Spec.NumCells()))
	go m.executeSweep(j)
	return j, nil
}

// GetSweep looks a sweep job up by ID.
func (m *Manager) GetSweep(id string) (*SweepJob, bool) { return m.sweeps.get(id) }

// Sweeps snapshots every known sweep job's status.
func (m *Manager) Sweeps() []SweepStatus { return m.sweeps.statuses() }

// CancelSweep aborts a queued or running sweep: cells not yet started
// are skipped, in-flight cells are interrupted between rounds.
// Terminal sweeps return ErrNotRunning.
func (m *Manager) CancelSweep(id string) error { return m.sweeps.cancel(id) }

// executeSweep is the sweep job's background lifecycle: acquire state,
// run the grid with cancellation and the sweep time limit attached,
// publish cells, record the summary, close the stream.
func (m *Manager) executeSweep(j *SweepJob) {
	defer m.sweepWG.Done()
	defer func() {
		j.scratch, j.done = nil, nil
		j.cells.close()
		m.sweeps.retire(j.ID)
	}()
	defer func() {
		st := j.State()
		m.metrics.sweepJobs.With(string(st)).Inc()
		m.logger.InfoContext(j.ctx, "sweep finished",
			slog.String("sweep_id", j.ID),
			slog.String("state", string(st)))
	}()

	// A sweep canceled before it starts still runs its executor, which
	// skips every cell, as a mid-grid cancel skips the rest.
	if !j.canceled() {
		j.setState(StateRunning)
	}

	ctx, cancel := context.WithTimeout(j.ctx, m.cfg.SweepTimeLimit)
	defer cancel()

	sum, err := m.runGrid(ctx, j)
	state, jobErr := j.outcomeOf(err, "sweep", m.cfg.SweepTimeLimit)
	if j.journal != nil {
		// Seal and release the journal before the terminal state is
		// published: a client that sees the sweep finish and resubmits
		// its grid must find the journal free to replay, not still
		// owned by this job. A shutdown-canceled sweep gets no terminal
		// record, so that it looks like a crash and the next startup
		// resumes it.
		if !m.isClosed() {
			done, _ := json.Marshal(doneRecord{State: state, Summary: sum})
			j.journal.append(recDone, done)
		}
		j.journal.sync()
		j.journal.close()
	}
	// Free the sweep slot before the terminal state too, so that the
	// same resubmission is not refused at the gate.
	<-m.sweepGate
	m.metrics.sweepsActive.Dec()
	j.finish(state, sum, jobErr)
}

// replay answers cell i from the job's done-set: the first lookup of
// both executors.
func (j *SweepJob) replay(i int, _ expt.Cell) (expt.Outcome, bool) {
	return readOutcome(j.done[i], j.done[i] != nil)
}

// recordCell is emitCell's last step, with rec, cell i's packed record
// (cells.go). It journals an ok cell the done-set lacks as
// uvarint(i) and rec with the holder's flags cleared, syncs the journal
// after each (algorithm, workload, n) group — a coordinator's shard —
// and appends rec to the log. A cell out of position is an error.
func (j *SweepJob) recordCell(i int, rec []byte) error {
	if n := j.cells.Len(); i != n {
		return fmt.Errorf("service: internal error: cell %d recorded at position %d", i, n)
	}
	if j.journal != nil {
		if rec[0]&cellError == 0 && j.done[i] == nil {
			j.scratch = append(binary.AppendUvarint(j.scratch[:0], uint64(i)), rec...)
			j.scratch[len(j.scratch)-len(rec)] &^= cellFromCache
			j.journal.append(recCell, j.scratch)
		}
		if (i+1)%len(j.grid.Seeds) == 0 { // seeds vary fastest
			j.journal.sync()
		}
	}
	j.scratch = j.renderCell(j.scratch[:0], rec, i)
	j.cells.add(rec, len(j.scratch))
	return nil
}

// emitCell is both executors' emit: called in canonical order from
// the goroutine that runs the grid, it counts cr into sum and on
// /metrics, packs it once — an executed cell's record is also its
// outcome's index entry — and records it (recordCell). Only a cell that
// ran files its outcome and folds its dynamics totals in: a hit's were
// counted when it ran, and a coordinator runs nothing.
func (m *Manager) emitCell(j *SweepJob, sum *SweepSummary, cr expt.CellResult) error {
	if cr.Ran {
		m.runsExecuted.Add(1)
		sum.Executed++
	}
	m.metrics.observeCell(cr)
	start := time.Now()
	var flags byte
	if cr.FromCache {
		flags = cellFromCache
	}
	if cr.Err != nil {
		// Error cells stay out of the index and the journal, so a
		// resumed sweep retries them.
		sum.Errors++
		j.scratch = packError(j.scratch[:0], flags, cr.Err.Error())
	} else {
		if cr.FromCache {
			sum.CacheHits++
		}
		if cr.Ran && cr.Cell.Dynamics != nil {
			m.metrics.observeDynamics(cr.Outcome)
		}
		j.scratch = expt.AppendOutcome(j.scratch[:0], flags, &cr.Outcome)
	}
	rec := bytes.Clone(j.scratch) // exact size: the log's, and the index's
	j.packed(time.Since(start))
	if cr.Ran && cr.Err == nil {
		m.outcomes.Add(cr.Cell.Key(), rec)
	}
	return j.recordCell(cr.Index, rec)
}

// runGrid executes the job's grid and hands every cell to emitCell,
// whose first error fails the sweep. ctx aborts between rounds.
//
// In coordinator mode fleet.RunGrid shards the grid across the
// registered workers, re-dispatches a shard whose worker fails, and
// merges the workers' checked cells back into canonical order. Its
// lookup is the job's done-set: a shard the journal holds in full
// merges without dispatch, and a fresh coordinator on a dead one's data
// dir picks the grid up where the journal left it. Merged cells never
// ran here, so they file nothing in the local index: they already live
// in the worker-side caches, and a coordinator stays out of simulation.
//
// Otherwise the grid runs on an engine fleet of cfg.SweepWorkers
// runners. Lookup answers a cell from the job's done-set, else from the
// outcome index (keys are canonical, so a cell repeats a POST /v1/runs
// run or another sweep's cell), else by waiting for an identical run
// job in flight.
func (m *Manager) runGrid(ctx context.Context, j *SweepJob) (SweepSummary, error) {
	sum := SweepSummary{Cells: j.Spec.NumCells()}
	var recErr error
	// busy accumulates executed-cell wall time (emit runs on this
	// goroutine only); with the grid's wall-clock it yields the
	// engine-fleet utilization fold after a local sweep.
	var busy time.Duration
	emit := func(cr expt.CellResult) {
		busy += cr.Duration
		recErr = cmp.Or(recErr, m.emitCell(j, &sum, cr))
	}
	var err error
	if m.cfg.Fleet != nil {
		var fsum fleet.Summary
		fsum, err = m.cfg.Fleet.RunGrid(ctx, j.Spec, j.replay, emit)
		sum.Executed, sum.Replayed = fsum.Executed, fsum.Replayed
	} else {
		// replayed counts the cells answered from the done-set; Lookup
		// runs on the engine fleet's goroutines.
		var replayed atomic.Int64
		workers := min(m.cfg.SweepWorkers, sum.Cells)
		start := time.Now()
		_, err = expt.ExecuteSweep(j.Spec, expt.SweepOptions{
			Workers:       m.cfg.SweepWorkers,
			SimOpts:       []sim.Option{sim.WithRunObserver(m.metrics.observeRun)},
			Context:       ctx,
			CellTimeLimit: m.cfg.RunTimeLimit,
			Lookup: func(i int, c expt.Cell) (expt.Outcome, bool) {
				if out, ok := j.replay(i, c); ok {
					replayed.Add(1)
					return out, true
				}
				key := c.Key()
				if out, ok := readOutcome(m.outcomes.Get(key)); ok {
					return out, true
				}
				// Coalesce with an identical spec already in flight as a
				// /v1/runs job (same dedup Submit does via inWork): wait
				// for it instead of simulating the same deterministic run
				// twice. Its completion files its outcome.
				if run := m.liveJob(key); run != nil {
					run.log.WaitFrames(ctx, math.MaxInt)
					return readOutcome(m.outcomes.Get(key))
				}
				return expt.Outcome{}, false
			},
			Emit: emit,
		})
		if wall := time.Since(start); wall > 0 && workers > 0 {
			m.metrics.gridUtilization.Observe(busy.Seconds() / (wall.Seconds() * float64(workers)))
		}
		sum.Replayed = int(replayed.Load())
	}
	m.metrics.journalReplayedCells.Add(int64(sum.Replayed))
	err = cmp.Or(err, recErr)
	sum.Done = err == nil
	return sum, err
}
