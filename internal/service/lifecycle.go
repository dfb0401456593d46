package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adnet/internal/sim"
)

// JobState is a job's lifecycle phase.
type JobState string

// Job lifecycle: queued → running → one of the three terminal states.
// Cache hits are born StateDone.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// lifecycle is what a run Job and a SweepJob share: the state machine
// with its timestamps and terminal error, and the job's context, which
// a DELETE (or Close) cancels. Both job kinds embed it.
type lifecycle struct {
	// ctx is canceled by requestCancel only. Its parent is never
	// canceled, so a job that ends without a DELETE leaves nothing
	// registered for cancel to release.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state JobState
	times jobTimes
}

// jobTimes is the tail every job status snapshot shares. The pointed-to
// times are written once and never mutated, so snapshots share them.
type jobTimes struct {
	Error      string     `json:"error,omitempty"`
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// queued starts a lifecycle in StateQueued, enqueued now, whose
// context is a cancelable child of ctx.
func queued(ctx context.Context) lifecycle {
	ctx, cancel := context.WithCancel(ctx)
	return lifecycle{ctx: ctx, cancel: cancel, state: StateQueued, times: jobTimes{EnqueuedAt: time.Now()}}
}

// setState records a non-terminal transition; terminal ones carry an
// error and go through finishLocked.
func (l *lifecycle) setState(s JobState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.state = s
	if s == StateRunning {
		now := time.Now()
		l.times.StartedAt = &now
	}
}

// finishLocked publishes a terminal state together with its error, so
// no status poll sees one without the other; l.mu must be held.
func (l *lifecycle) finishLocked(state JobState, err error) {
	now := time.Now()
	l.state, l.times.FinishedAt = state, &now
	if err != nil {
		l.times.Error = err.Error()
	}
}

// State returns the current lifecycle phase.
func (l *lifecycle) State() JobState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state
}

// requestCancel aborts a queued or running job: work not yet started
// is skipped, in-flight simulations are interrupted between rounds.
// Terminal jobs return ErrNotRunning.
func (l *lifecycle) requestCancel() error {
	if l.State().terminal() {
		return ErrNotRunning
	}
	l.cancel()
	return nil
}

// canceled reports whether the job's context has been canceled.
func (l *lifecycle) canceled() bool { return l.ctx.Err() != nil }

// outcomeOf classifies how an execution under the job's context,
// bounded by its time limit, ended: done, canceled by request, over
// its time limit (kind names the job in the message), or failed on its
// own.
func (l *lifecycle) outcomeOf(err error, kind string, limit time.Duration) (JobState, error) {
	switch {
	case err == nil:
		return StateDone, nil
	case errors.Is(err, sim.ErrCanceled) && l.canceled():
		return StateCanceled, fmt.Errorf("canceled by request: %w", err)
	case errors.Is(err, sim.ErrCanceled):
		return StateFailed, fmt.Errorf("%s time limit %s exceeded: %w", kind, limit, err)
	default:
		return StateFailed, err
	}
}

// job is what the manager's retained table and the shared HTTP routes
// need of a job kind (S is its status snapshot).
type job[S any] interface {
	Status() S
	requestCancel() error
}

// jobTable keeps one kind of job queryable by ID: live jobs for as
// long as they run, finished ones until retain newer ones have
// finished — which bounds the table on an always-on server.
type jobTable[J job[S], S any] struct {
	retain int

	mu      sync.Mutex
	jobs    map[string]J
	retired []string // finished job IDs, oldest first
}

func newJobTable[J job[S], S any](retain int) *jobTable[J, S] {
	return &jobTable[J, S]{retain: retain, jobs: make(map[string]J)}
}

func (t *jobTable[J, S]) add(id string, j J) {
	t.mu.Lock()
	t.jobs[id] = j
	t.mu.Unlock()
}

func (t *jobTable[J, S]) get(id string) (J, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

func (t *jobTable[J, S]) all() []J {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobs := make([]J, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// statuses snapshots every known job, in no particular order.
func (t *jobTable[J, S]) statuses() []S {
	jobs := t.all()
	out := make([]S, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

func (t *jobTable[J, S]) cancel(id string) error {
	j, ok := t.get(id)
	if !ok {
		return ErrNotFound
	}
	return j.requestCancel()
}

// retire records a finished job and evicts the oldest finished jobs
// beyond the retention bound. Live jobs are never evicted.
func (t *jobTable[J, S]) retire(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retired = append(t.retired, id)
	for len(t.retired) > t.retain {
		delete(t.jobs, t.retired[0])
		t.retired = t.retired[1:]
	}
}
