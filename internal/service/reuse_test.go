package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adnet/internal/dynamics"
)

// servedRun is what a client observes of one finished run job: its
// terminal status and the bytes of /rounds and /topology?format=packed.
type servedRun struct {
	st           JobStatus
	rounds, topo []byte
}

func serveRun(t *testing.T, srv *httptest.Server, spec RunSpec) servedRun {
	t.Helper()
	sub, code := postRun(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST %s = %d, want 202", spec.Key(), code)
	}
	id := sub.Job.ID
	return servedRun{
		st:     awaitTerminal(t, srv, id),
		rounds: drainBody(t, srv, "/v1/runs/"+id+"/rounds"),
		topo:   drainBody(t, srv, "/v1/runs/"+id+"/topology?format=packed"),
	}
}

// TestRunWorkerReuseMatchesFreshManager pins that a run job stepped on
// a worker's reused Runner is indistinguishable from the same spec on
// a fresh single-use manager. One worker serves algorithm switches, a
// reboot environment, a shrinking and a growing run, and a failed and
// a canceled run in between, so nothing a job leaves in the engine may
// show in a later job's outcome or stream bytes.
func TestRunWorkerReuseMatchesFreshManager(t *testing.T) {
	t.Parallel()
	cfg := Config{Workers: 1, CacheSize: -1}
	srv, _ := newTestServer(t, cfg)

	star := func(n int) RunSpec { return RunSpec{Algorithm: "graph-to-star", Workload: "line", N: n, Seed: 1} }
	reboot := RunSpec{Algorithm: "graph-to-wreath", Workload: "line", N: 64, Seed: 1,
		Dynamics: &dynamics.Spec{Class: dynamics.ClassCrash, Rate: 1, Down: 2, Mode: dynamics.ModeReboot}}
	tooFewRounds := star(256)
	tooFewRounds.MaxRounds = 5

	steps := []struct {
		spec RunSpec
		want JobState
	}{
		{star(512), StateDone},
		{RunSpec{Algorithm: "graph-to-wreath", Workload: "ring", N: 128, Seed: 1}, StateDone},
		{RunSpec{Algorithm: "flood", Workload: "line", N: 64, Seed: 1}, StateDone},
		{reboot, StateDone},
		{star(96), StateDone}, // shrinks: Reset scrubs the machine tail
		{tooFewRounds, StateFailed},
		{longSpec(38), StateCanceled},
		{star(1024), StateDone}, // grows past every earlier run
	}
	for _, s := range steps {
		key := s.spec.Key()
		if s.want == StateCanceled {
			// DELETE mid-run: the engine stops between rounds and the
			// next job Resets over whatever it left.
			sub, code := postRun(t, srv, s.spec)
			if code != http.StatusAccepted {
				t.Fatalf("POST %s = %d, want 202", key, code)
			}
			for getStatus(t, srv, sub.Job.ID).Rounds == 0 {
				time.Sleep(time.Millisecond)
			}
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+sub.Job.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if st := awaitTerminal(t, srv, sub.Job.ID); resp.StatusCode != http.StatusNoContent || st.State != s.want {
				t.Fatalf("%s: DELETE = %d, then state %s, want 204 and %s", key, resp.StatusCode, st.State, s.want)
			}
			continue
		}
		got := serveRun(t, srv, s.spec)
		if got.st.State != s.want {
			t.Fatalf("%s: state %s (%s), want %s", key, got.st.State, got.st.Error, s.want)
		}
		fresh, _ := newTestServer(t, cfg)
		want := serveRun(t, fresh, s.spec)
		if got.st.Error != want.st.Error {
			t.Errorf("%s: error %q on the reused worker, %q on a fresh one", key, got.st.Error, want.st.Error)
		}
		if (got.st.Outcome == nil) != (want.st.Outcome == nil) ||
			got.st.Outcome != nil && *got.st.Outcome != *want.st.Outcome {
			t.Errorf("%s: outcome %+v on the reused worker, %+v on a fresh one", key, got.st.Outcome, want.st.Outcome)
		}
		if string(got.rounds) != string(want.rounds) {
			t.Errorf("%s: /rounds bytes differ from a fresh manager's", key)
		}
		if string(got.topo) != string(want.topo) {
			t.Errorf("%s: /topology?format=packed bytes differ from a fresh manager's", key)
		}
		if s.spec.Dynamics != nil && (got.st.Outcome == nil || got.st.Outcome.Restarts == 0) {
			t.Errorf("%s: the reboot run applied no restart", key)
		}
	}
}
