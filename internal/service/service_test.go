package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adnet/internal/dynamics"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// fastSpec is small enough to finish in milliseconds.
func fastSpec(seed int64) RunSpec {
	return RunSpec{Algorithm: "graph-to-star", Workload: "line", N: 64, Seed: seed}
}

// slowSpec keeps a worker busy for tens of milliseconds: long enough
// to queue behind, short enough to wait for. A test that must catch a
// run in flight uses longSpec. The line workload ignores the seed, but
// distinct seeds still make distinct cache keys.
func slowSpec(seed int64) RunSpec {
	return RunSpec{Algorithm: "graph-to-star", Workload: "line", N: 4096, Seed: seed}
}

// longSpec cannot finish before a test that catches it in flight acts
// on it: flood on a 4096-node line runs 4,097 rounds, seconds of work,
// and a DELETE or a time limit stops it between rounds.
func longSpec(seed int64) RunSpec {
	return RunSpec{Algorithm: "flood", Workload: "line", N: 4096, Seed: seed}
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want %q", j.ID, j.State(), want)
}

func TestSpecValidate(t *testing.T) {
	t.Parallel()
	valid := fastSpec(1)
	if err := validateSweep(valid.Grid(), DefaultMaxN, 0); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []RunSpec{
		{Algorithm: "no-such-algo", Workload: "line", N: 8},
		{Algorithm: "graph-to-star", Workload: "no-such-family", N: 8},
		{Algorithm: "graph-to-star", Workload: "line", N: 1},
		{Algorithm: "graph-to-star", Workload: "line", N: 0},
		{Algorithm: "graph-to-star", Workload: "line", N: DefaultMaxN + 1},
		{Algorithm: "graph-to-star", Workload: "line", N: 8, MaxRounds: -1},
	}
	for _, s := range bad {
		if err := validateSweep(s.Grid(), DefaultMaxN, 0); err == nil {
			t.Errorf("spec %+v passed validation", s)
		}
	}
	// A service whose limit admits any n still refuses one past the ID range.
	past := RunSpec{Algorithm: "graph-to-star", Workload: "line", N: graph.MaxNodes + 1}
	if err := validateSweep(past.Grid(), math.MaxInt, 0); err == nil {
		t.Errorf("spec %+v passed validation with no service limit", past)
	}
}

func TestShortHashStable(t *testing.T) {
	t.Parallel()
	h := shortHash("x")
	if len(h) != 8 {
		t.Fatalf("len = %d, want 8", len(h))
	}
	if shortHash("x") != h {
		t.Fatal("hash not deterministic")
	}
	if shortHash("y") == h {
		t.Fatal("distinct keys share a short hash (astronomically unlikely)")
	}
}

func TestSpecKeyDistinguishesFields(t *testing.T) {
	t.Parallel()
	base := fastSpec(1)
	variants := []RunSpec{
		{Algorithm: "graph-to-wreath", Workload: base.Workload, N: base.N, Seed: base.Seed},
		{Algorithm: base.Algorithm, Workload: "star", N: base.N, Seed: base.Seed},
		{Algorithm: base.Algorithm, Workload: base.Workload, N: base.N + 1, Seed: base.Seed},
		{Algorithm: base.Algorithm, Workload: base.Workload, N: base.N, Seed: base.Seed + 1},
		{Algorithm: base.Algorithm, Workload: base.Workload, N: base.N, Seed: base.Seed, MaxRounds: 9},
		{Algorithm: base.Algorithm, Workload: base.Workload, N: base.N, Seed: base.Seed, Dynamics: &dynamics.Spec{Class: dynamics.ClassEdgeChurn}},
		{Algorithm: base.Algorithm, Workload: base.Workload, N: base.N, Seed: base.Seed, Dynamics: &dynamics.Spec{Class: dynamics.ClassCrash}},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Errorf("key collision for %+v", v)
		}
		seen[v.Key()] = true
	}
	if base.Key() != fastSpec(1).Key() {
		t.Error("identical specs must share a key")
	}

	// A sweep's key changes with every field that changes the cells it
	// enumerates.
	grid := SweepSpec{Algorithms: []string{"flood"}, Workloads: []string{"line"}, Sizes: []int{16}, Seeds: []int64{1, 2}}
	for name, edit := range map[string]func(*SweepSpec){
		"algorithms": func(s *SweepSpec) { s.Algorithms = []string{"flood", "graph-to-star"} },
		"workloads":  func(s *SweepSpec) { s.Workloads = []string{"ring"} },
		"sizes":      func(s *SweepSpec) { s.Sizes = []int{17} },
		"seeds":      func(s *SweepSpec) { s.Seeds = []int64{1, 3} },
		"max_rounds": func(s *SweepSpec) { s.MaxRounds = 9 },
		"dynamics":   func(s *SweepSpec) { s.Dynamics = &dynamics.Spec{Class: dynamics.ClassEdgeChurn} },
	} {
		v := grid
		edit(&v)
		if v.Key() == grid.Key() {
			t.Errorf("changing %s leaves the sweep key %q", name, v.Key())
		}
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	t.Parallel()
	c := newLRU[int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b, the least recently used
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || got != 1 {
		t.Error("a should have survived eviction")
	}
	if got, ok := c.Get("c"); !ok || got != 3 {
		t.Error("c should be cached")
	}
	if size, hits, misses := c.Stats(); size != 2 || hits != 3 || misses != 1 {
		t.Errorf("stats = (%d,%d,%d), want (2,3,1)", size, hits, misses)
	}
	// Add replaces a resident value and promotes it.
	c.Add("c", 4)
	c.Add("a", 5)
	if got := c.values(); !slices.Equal(got, []int{5, 4}) {
		t.Errorf("values = %v, want [5 4], most recent first", got)
	}
	// A capacity of zero or less holds nothing.
	off := newLRU[int](-1)
	off.Add("a", 1)
	if _, ok := off.Get("a"); ok {
		t.Error("a disabled cache stored a value")
	}
}

func TestManagerRunCompletesAndCaches(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 2})
	defer m.Close()

	job, cached, err := m.Submit(fastSpec(7))
	if err != nil || cached {
		t.Fatalf("Submit = (cached=%v, err=%v)", cached, err)
	}
	waitState(t, job, StateDone)
	st := job.Status()
	if st.Outcome == nil || !st.Outcome.LeaderOK {
		t.Fatalf("outcome = %+v, want elected leader", st.Outcome)
	}
	if st.Rounds == 0 || st.Rounds != st.Outcome.Rounds {
		t.Fatalf("streamed %d rounds, outcome says %d", st.Rounds, st.Outcome.Rounds)
	}

	// The identical spec must be a cache hit: answered instantly,
	// with the same outcome and the full round replay, without
	// executing another simulation.
	hit, cached, err := m.Submit(fastSpec(7))
	if err != nil || !cached {
		t.Fatalf("resubmit = (cached=%v, err=%v), want cache hit", cached, err)
	}
	if hit.State() != StateDone || !hit.FromCache {
		t.Fatalf("cache-hit job state = %s from_cache=%v", hit.State(), hit.FromCache)
	}
	if got := hit.Status(); *got.Outcome != *st.Outcome || got.Rounds != st.Rounds {
		t.Fatalf("cache-hit mismatch: %+v vs %+v", got, st)
	}
	if hit.ID == job.ID {
		t.Error("cache hit must mint a fresh job id")
	}
	if runs := m.RunsExecuted(); runs != 1 {
		t.Fatalf("RunsExecuted = %d, want 1 (no re-simulation)", runs)
	}

	// A different seed is a different run.
	other, cached, err := m.Submit(fastSpec(8))
	if err != nil || cached {
		t.Fatalf("different seed = (cached=%v, err=%v)", cached, err)
	}
	waitState(t, other, StateDone)
	if runs := m.RunsExecuted(); runs != 2 {
		t.Fatalf("RunsExecuted = %d, want 2", runs)
	}
}

func TestManagerDedupesInFlightSpec(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, QueueDepth: 8})
	defer m.Close()

	first, _, err := m.Submit(slowSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	second, cached, err := m.Submit(slowSpec(3))
	if err != nil || cached {
		t.Fatalf("dup submit = (cached=%v, err=%v)", cached, err)
	}
	if second != first {
		t.Fatalf("in-flight duplicate spawned a second job: %s vs %s", second.ID, first.ID)
	}
	waitState(t, first, StateDone)
	if runs := m.RunsExecuted(); runs != 1 {
		t.Fatalf("RunsExecuted = %d, want 1", runs)
	}
}

func TestManagerRetentionBoundsJobTable(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, CacheSize: -1, RetainJobs: 2})
	defer m.Close()

	var last *Job
	for seed := int64(0); seed < 4; seed++ {
		j, _, err := m.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		last = j
	}
	jobs := m.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("table holds %d jobs, want 2 (retention bound)", len(jobs))
	}
	if _, ok := m.Get(last.ID); !ok {
		t.Error("newest finished job must survive retention")
	}
}

func TestManagerDedupSkipsCanceledJob(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, QueueDepth: 8})
	defer m.Close()

	// Occupy the worker so the target spec stays queued.
	blocker, _, err := m.Submit(slowSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := m.Submit(slowSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// A fresh submitter of the same spec must get a new run, not the
	// canceled job.
	fresh, cached, err := m.Submit(slowSpec(61))
	if err != nil || cached {
		t.Fatalf("resubmit = (cached=%v, err=%v)", cached, err)
	}
	if fresh == queued {
		t.Fatal("dedup handed out a canceled job")
	}
	waitState(t, blocker, StateDone)
	waitState(t, queued, StateCanceled)
	waitState(t, fresh, StateDone)
}

func TestManagerQueueFull(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()

	var sawFull bool
	for seed := int64(0); seed < 8; seed++ {
		_, _, err := m.Submit(slowSpec(100 + seed))
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("never hit ErrQueueFull with 1 worker and queue depth 1")
	}
}

func TestManagerCancelRunningJob(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	job, _, err := m.Submit(slowSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateRunning)
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.State() != StateCanceled && job.State() != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", job.State())
		}
		time.Sleep(time.Millisecond)
	}
	// The run may legitimately have finished in the race window; a
	// canceled verdict must carry the error and reject re-cancel.
	if job.State() == StateCanceled {
		if st := job.Status(); st.Error == "" {
			t.Error("canceled job must record an error")
		}
		if err := m.Cancel(job.ID); !errors.Is(err, ErrNotRunning) {
			t.Errorf("re-cancel = %v, want ErrNotRunning", err)
		}
	}
	if err := m.Cancel("run-999999-ffffffff"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown = %v, want ErrNotFound", err)
	}
}

func TestManagerTimeLimitFailsRun(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, RunTimeLimit: time.Millisecond})
	defer m.Close()

	job, _, err := m.Submit(slowSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateFailed)
	if st := job.Status(); st.Error == "" {
		t.Error("time-limited job must record an error")
	}
	if runs := m.RunsExecuted(); runs != 1 {
		t.Fatalf("RunsExecuted = %d, want 1", runs)
	}
	// Failures are not cached: the same spec runs again.
	if _, cached, _ := m.Submit(slowSpec(9)); cached {
		t.Error("failed run must not be served from cache")
	}
}

// TestFailedRunLogsItsFailure: a run that fails logs its failure's
// kind and round beside the error text, which its status keeps
// unchanged; a round limit names no node, so none is logged.
func TestFailedRunLogsItsFailure(t *testing.T) {
	t.Parallel()
	var logs bytes.Buffer // the handler serializes its writes
	m := NewManager(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	spec := fastSpec(1)
	spec.MaxRounds = 5
	job, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateFailed)
	m.Close() // the worker logs after the state turns; Close waits for it
	const text = "expt: graph-to-star on n=64: sim: round limit exceeded before termination (limit 5)"
	if st := job.Status(); st.Error != text {
		t.Errorf("status error %q, want %q", st.Error, text)
	}
	if want := `msg="run failed" job_id=` + job.ID + ` error="` + text + `" kind=round_limit round=5` + "\n"; !strings.Contains(logs.String(), want) {
		t.Errorf("log %q lacks %q", logs.String(), want)
	}
}

// TestFailureAttrs: the run-failed log names a failure's nodes only for
// the kinds that involve them.
func TestFailureAttrs(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		err  error
		want string
	}{
		{errors.New("expt: unknown workload"), "[]"},
		{&sim.Failure{Kind: sim.RoundLimit, Round: 5}, "[kind=round_limit round=5]"},
		{&sim.Failure{Kind: sim.Disconnected, Round: 861}, "[kind=disconnected round=861]"},
		{&sim.Failure{Kind: sim.EnvironmentRefused, Round: 2, Err: errors.New("refused")}, "[kind=environment_refused round=2]"},
		{fmt.Errorf("expt: wreath: %w", &sim.Failure{Kind: sim.NonNeighborSend, Round: 599, Node: 33, Peer: 116}),
			"[kind=non_neighbor_send round=599 node=33 peer=116]"},
		{&sim.Failure{Kind: sim.ModelViolation, Round: 45, Node: 548, Peer: 1021}, "[kind=model_violation round=45 node=548 peer=1021]"},
		{&sim.Failure{Kind: sim.MachinePanic, Round: 210, Node: 0, Detail: "boom"}, "[kind=machine_panic round=210 node=0]"},
	} {
		if got := fmt.Sprint(failureAttrs(tc.err)); got != tc.want {
			t.Errorf("failureAttrs(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

// adnetGoroutines counts the live goroutines that adnet/ code started:
// a goroutine of the runtime, the testing package or net/http — an
// earlier test's connection winding down, say — does not move it.
func adnetGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("\ncreated by adnet/"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRunJobStartsNoGoroutine pins that a running run job adds no
// goroutine beyond the pool worker that steps it: the job's context
// carries a DELETE and the time limit to the engine by itself. Not
// parallel: it counts goroutines.
func TestRunJobStartsNoGoroutine(t *testing.T) {
	m := NewManager(Config{Workers: 1, RunTimeLimit: time.Minute})
	defer m.Close()

	before := adnetGoroutines()
	job, _, err := m.Submit(longSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	// The first round record is published from inside the engine's run.
	if _, ok := job.log.WaitFrames(context.Background(), 1); !ok {
		t.Fatal("run ended before publishing a round")
	}
	during := adnetGoroutines()
	if st := job.State(); st != StateRunning {
		t.Fatalf("job %s before the probe could read it", st)
	}
	if err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateCanceled)
	if got := during - before; got != 0 {
		t.Fatalf("a running run job added %d goroutines beyond its pool worker, want 0", got)
	}
}

func TestManagerRejectsInvalidSpec(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, MaxN: 128})
	defer m.Close()
	if _, _, err := m.Submit(RunSpec{Algorithm: "nope", Workload: "line", N: 8}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, _, err := m.Submit(RunSpec{Algorithm: "graph-to-star", Workload: "line", N: 256}); err == nil {
		t.Error("n over MaxN accepted")
	}
}

func TestManagerCloseRejectsSubmit(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1})
	m.Close()
	if _, _, err := m.Submit(fastSpec(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	m.Close() // idempotent
}

func TestRoundStreamReplayAndLiveTail(t *testing.T) {
	t.Parallel()
	s := newFrameLog(0)
	publish := func(round int) {
		frame := jsonFrame(temporal.RoundStats{Round: round})
		s.add(frame, len(frame))
	}
	for i := 1; i <= 3; i++ {
		publish(i)
	}
	ctx := context.Background()

	// Replay: a late subscriber sees all published rounds at once.
	batch, ok := s.WaitFrames(ctx, 0)
	if !ok || len(batch) != 3 {
		t.Fatalf("replay batch = (%d, %v), want 3 rounds", len(batch), ok)
	}
	// Replay from a cursor starts at that frame.
	if batch, ok := s.WaitFrames(ctx, 2); !ok || len(batch) != 1 || !bytes.Equal(batch[0], jsonFrame(temporal.RoundStats{Round: 3})) {
		t.Fatalf("cursor=2 batch = (%q, %v), want round 3's frame", batch, ok)
	}

	// Live tail: a blocked WaitFrames is released by the next publish.
	got := make(chan int, 1)
	go func() {
		b, _ := s.WaitFrames(ctx, 3)
		got <- len(b)
	}()
	time.Sleep(10 * time.Millisecond)
	publish(4)
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("tail batch = %d rounds, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFrames never woke on publish")
	}

	// Close drains: consumed streams return ok=false.
	s.close()
	if _, ok := s.WaitFrames(ctx, 4); ok {
		t.Fatal("WaitFrames on a closed, fully-consumed stream must return false")
	}
	if batch, ok := s.WaitFrames(ctx, 0); !ok || len(batch) != 4 {
		t.Fatal("closed stream must still replay history")
	}
}

func TestRoundStreamWaitHonorsContext(t *testing.T) {
	t.Parallel()
	s := newFrameLog(0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := s.WaitFrames(ctx, 0)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("canceled WaitFrames must return ok=false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFrames ignored context cancellation")
	}
}

func TestConcurrentSubmissionsThroughBoundedPool(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 4, QueueDepth: 64})
	defer m.Close()

	const jobs = 16
	jobsCh := make(chan *Job, jobs)
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func(seed int64) {
			j, _, err := m.Submit(fastSpec(seed))
			if err != nil {
				errs <- err
				return
			}
			jobsCh <- j
		}(int64(i))
	}
	for i := 0; i < jobs; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case j := <-jobsCh:
			waitState(t, j, StateDone)
			if st := j.Status(); st.Outcome == nil || !st.Outcome.LeaderOK {
				t.Fatalf("job %s: bad outcome %+v", j.ID, st.Outcome)
			}
		}
	}
	if runs := m.RunsExecuted(); runs != jobs {
		t.Fatalf("RunsExecuted = %d, want %d", runs, jobs)
	}
}

func TestDeterministicOutcomesAcrossJobs(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 2, CacheSize: -1}) // cache disabled
	defer m.Close()
	var last *Job
	for i := 0; i < 2; i++ {
		j, cached, err := m.Submit(RunSpec{Algorithm: "graph-to-wreath", Workload: "random-tree", N: 96, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatal("cache disabled but hit")
		}
		waitState(t, j, StateDone)
		if last != nil {
			a, b := last.Status(), j.Status()
			if *a.Outcome != *b.Outcome {
				t.Fatalf("same spec, different outcomes: %+v vs %+v", a.Outcome, b.Outcome)
			}
		}
		last = j
	}
	if fmt.Sprint(m.RunsExecuted()) != "2" {
		t.Fatalf("RunsExecuted = %d, want 2", m.RunsExecuted())
	}
}
