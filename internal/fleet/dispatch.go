package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"adnet/internal/expt"
	"adnet/internal/obs"
)

// errWorkerBusy marks a dispatch rejected by the worker's sweep gate
// (HTTP 503): the worker is saturated with its own client sweeps, not
// broken, so the dispatcher requeues the shard without taking the
// worker out of rotation.
var errWorkerBusy = errors.New("fleet: worker sweep gate busy")

// errSweepIncomplete marks a dispatch whose worker-side sweep ended
// without completing (done:false — a worker sweep time limit or a
// third-party cancellation). The worker proved itself alive by
// streaming the full canceled shape, so like errWorkerBusy this
// requeues the shard without costing the worker its health.
var errSweepIncomplete = errors.New("fleet: worker sweep ended incomplete")

// errDispatchRejected marks a shard POST the worker deterministically
// refused (4xx — e.g. the worker's sweep cell/size limits are tighter
// than the coordinator's). Retrying elsewhere would fail identically,
// so the dispatcher fails the sweep fast without poisoning any
// worker's health.
var errDispatchRejected = errors.New("fleet: worker rejected the shard spec")

// shardProgress is the coordinator's per-shard bookkeeping. It is
// owned by whichever dispatcher currently runs the shard — ownership
// is handed over through the shard queue, never shared — so no lock
// is needed.
type shardProgress struct {
	// attempts counts failed dispatches; at cfg.ShardAttempts the
	// sweep fails.
	attempts int
	// executed (simulations the worker actually ran) and cells are
	// recorded by the dispatch that completed the shard (cells in
	// shard-local order — what GridHooks.Persist journals).
	executed int
	cells    []expt.WireCell
}

// runShard executes one shard on one worker: submit the sub-grid
// sweep, tail its cell stream, and — only once the worker's summary
// confirms the sweep completed (done=true, so a worker-side timeout
// or third-party cancellation never masquerades as a result) —
// deliver every cell with its global index, in shard order. Delivering
// after completion rather than live means a failed dispatch delivers
// nothing: a re-dispatched shard merges exactly once, with no
// cross-attempt cursor to reconcile. A dispatch that fails for any
// reason cancels its worker-side sweep best-effort so an abandoned
// shard does not keep burning worker time.
func (c *Coordinator) runShard(ctx context.Context, w *worker, sh Shard, sp *shardProgress, deliver func(expt.WireCell)) (err error) {
	id, err := c.postSweep(ctx, w, sh.Spec)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil || ctx.Err() != nil {
			c.cancelSweep(ctx, w, id)
		}
	}()

	n := sh.NumCells()
	collected := make([]expt.WireCell, n)
	have := make([]bool, n)
	var sum *expt.WireSummary
	// cursor carries across resume attempts: each pass asks the worker
	// to replay only the frames this dispatch has not consumed yet.
	cursor := 0
	for resumes := 0; ; resumes++ {
		if resumes > 0 {
			c.metrics.streamResumes.Inc()
		}
		err := c.tailCells(ctx, w, id, collected, have, &sum, &cursor)
		if err == nil && sum != nil {
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if resumes >= c.cfg.StreamResumes {
			if err == nil {
				err = errors.New("stream closed before the summary line")
			}
			return fmt.Errorf("fleet: shard %d stream on %s gave up after %d resumes: %w",
				sh.Index, w.url, resumes, err)
		}
		select {
		case <-time.After(c.cfg.RetryBackoff):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if !sum.Done {
		// The worker streamed the one-line-per-cell shape of a failed
		// or canceled sweep (time limit, external DELETE): not a
		// result — re-dispatch.
		return fmt.Errorf("%w: shard %d on %s (%d/%d errors)",
			errSweepIncomplete, sh.Index, w.url, sum.Errors, sum.Cells)
	}
	for i, ok := range have {
		if !ok {
			return fmt.Errorf("fleet: shard %d: worker %s never streamed cell %d", sh.Index, w.url, i)
		}
	}
	sp.executed = sum.Executed
	sp.cells = collected
	for i, cell := range collected {
		cell.Index = sh.Offset + i
		deliver(cell)
	}
	return nil
}

// tailCells streams one pass of GET /v1/sweeps/{id}/cells into
// collected, resuming from *cursor (the ?cursor=N replay offset: how
// many cell frames previous passes already consumed) and advancing it
// per cell. Returns nil when the stream ended cleanly (the caller
// checks whether the summary arrived).
func (c *Coordinator) tailCells(ctx context.Context, w *worker, id string,
	collected []expt.WireCell, have []bool, sum **expt.WireSummary, cursor *int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/sweeps/%s/cells?cursor=%d", w.url, id, *cursor), nil)
	if err != nil {
		return err
	}
	obs.SetRequestIDHeader(req)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cells stream returned %d", resp.StatusCode)
	}

	passSeen := *cursor
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done  *bool `json:"done"`
			Index *int  `json:"index"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return fmt.Errorf("bad NDJSON line: %w", err)
		}
		if probe.Done != nil {
			s := &expt.WireSummary{}
			if err := json.Unmarshal(line, s); err != nil {
				return fmt.Errorf("bad summary line: %w", err)
			}
			*sum = s
			continue
		}
		var cell expt.WireCell
		if err := json.Unmarshal(line, &cell); err != nil {
			return fmt.Errorf("bad cell line: %w", err)
		}
		if cell.Index != passSeen || cell.Index >= len(collected) {
			return fmt.Errorf("non-canonical cell stream: index %d at position %d", cell.Index, passSeen)
		}
		collected[cell.Index] = cell
		have[cell.Index] = true
		passSeen++
		*cursor = passSeen
	}
	return sc.Err()
}

// postSweep submits the shard's sub-grid and returns the worker-side
// sweep job ID. A 503 — the worker's fail-fast sweep gate, hit when
// the worker is saturated with its own client sweeps — surfaces as
// errWorkerBusy; the dispatcher paces the retries.
func (c *Coordinator) postSweep(ctx context.Context, w *worker, spec expt.SweepSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.SetRequestIDHeader(req)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return "", err
	}
	defer drainClose(resp)
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "", fmt.Errorf("%w: %s", errWorkerBusy, w.url)
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return "", fmt.Errorf("%w: %s returned %d: %s",
			errDispatchRejected, w.url, resp.StatusCode, errorMessage(resp.Body))
	default:
		return "", fmt.Errorf("POST /v1/sweeps returned %d: %s", resp.StatusCode, errorMessage(resp.Body))
	}
	var sub struct {
		Sweep struct {
			ID string `json:"id"`
		} `json:"sweep"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", err
	}
	if sub.Sweep.ID == "" {
		return "", errors.New("submit response carried no sweep ID")
	}
	return sub.Sweep.ID, nil
}

// errorMessage extracts the service's v1 error envelope
// ({"error":{"code","message",...}}) from a failed response body,
// falling back to the raw (trimmed, bounded) text for non-conforming
// bodies.
func errorMessage(body io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(body, 512))
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		return fmt.Sprintf("%s: %s", env.Error.Code, env.Error.Message)
	}
	return strings.TrimSpace(string(raw))
}

// cancelSweep aborts an abandoned worker sweep, detached from the
// (already canceled) sweep context's deadline but keeping its values,
// so the DELETE still carries the sweep's request ID.
func (c *Coordinator) cancelSweep(ctx context.Context, w *worker, id string) {
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, http.MethodDelete, w.url+"/v1/sweeps/"+id, nil)
	if err != nil {
		return
	}
	obs.SetRequestIDHeader(req)
	if resp, err := c.cfg.Client.Do(req); err == nil {
		drainClose(resp)
	}
}

// drainClose consumes what remains of a response body (bounded) so
// the transport can reuse the connection, then closes it.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}
