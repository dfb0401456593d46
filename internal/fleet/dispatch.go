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

// errDispatchRejected marks a shard POST the worker deterministically
// refused (4xx — e.g. the worker's sweep cell/size limits are tighter
// than the coordinator's). Retrying elsewhere would fail identically,
// so the dispatcher fails the sweep fast without poisoning any
// worker's health.
var errDispatchRejected = errors.New("fleet: worker rejected the shard spec")

// shardProgress is the coordinator's per-shard bookkeeping. Until the
// shard completes it is owned by whichever dispatcher currently runs
// the shard — ownership is handed over through the shard queue, never
// shared — so no lock is needed; once complete it is only read.
type shardProgress struct {
	// attempts counts failed dispatches; at shardAttempts the sweep
	// fails.
	attempts int
	// executed (simulations the worker actually ran) and cells are
	// recorded by the dispatch that completed the shard — or, for a
	// shard the lookup answered, filled in before dispatch starts. cells
	// are in canonical order, with global indexes.
	executed int
	cells    []expt.CellResult
}

// runShard executes one shard, whose grid cells are cells, on one
// worker: submit the sub-grid sweep and read its cell stream once, to
// the end. Only a stream that carries every cell and a summary
// confirming the sweep completed
// (done=true, so a worker-side timeout or third-party cancellation
// never masquerades as a result) completes the shard; a broken or
// short stream is a failed dispatch like any other, and the shard is
// re-dispatched whole. A dispatch that fails for any reason cancels
// its worker-side sweep best-effort so an abandoned shard does not
// keep burning worker time.
func (c *Coordinator) runShard(ctx context.Context, w *worker, sh Shard, cells []expt.Cell, sp *shardProgress) (err error) {
	id, err := c.postSweep(ctx, w, sh.Spec)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil || ctx.Err() != nil {
			c.cancelSweep(ctx, w, id)
		}
	}()

	results, sum, err := c.readCells(ctx, w, id, sh.Offset, cells)
	switch {
	case err != nil:
		return fmt.Errorf("fleet: shard %d stream on %s broke: %w", sh.Index, w.url, err)
	case sum == nil:
		return fmt.Errorf("fleet: shard %d stream on %s closed before the summary line", sh.Index, w.url)
	case !sum.Done:
		// The worker streamed the one-line-per-cell shape of a failed
		// or canceled sweep (time limit, external DELETE): not a
		// result.
		return fmt.Errorf("fleet: shard %d on %s ended incomplete (%d/%d errors)",
			sh.Index, w.url, sum.Errors, sum.Cells)
	case len(results) != len(cells):
		return fmt.Errorf("fleet: shard %d: worker %s streamed %d of %d cells",
			sh.Index, w.url, len(results), len(cells))
	}
	sp.executed = sum.Executed
	sp.cells = results
	return nil
}

// streamLine is one line of a worker's /cells stream: a cell, or the
// trailing summary. The two share no JSON key; Done, which shadows the
// summary's own, is set on the summary line only.
type streamLine struct {
	expt.WireCell
	expt.WireSummary
	Done *bool `json:"done"`
}

// readCells reads GET /v1/sweeps/{id}/cells to its end: the results of
// the shard whose grid cells, from global index offset on, are grid,
// and the trailing summary (nil when the stream ended without one).
// Worker streams are outside input, so each cell line must be the
// grid's cell at its position — index, algorithm, workload, n, seed
// and max_rounds — and carry exactly one of an outcome and an error;
// any other line fails the read, and with it the dispatch.
func (c *Coordinator) readCells(ctx context.Context, w *worker, id string, offset int, grid []expt.Cell) ([]expt.CellResult, *expt.WireSummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/sweeps/"+id+"/cells", nil)
	if err != nil {
		return nil, nil, err
	}
	obs.SetRequestIDHeader(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("cells stream returned %d", resp.StatusCode)
	}

	results := make([]expt.CellResult, 0, len(grid))
	var sum *expt.WireSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, nil, fmt.Errorf("bad NDJSON line: %w", err)
		}
		if l.Done != nil {
			l.WireSummary.Done = *l.Done
			sum = &l.WireSummary
			continue
		}
		k := len(results)
		if k == len(grid) {
			return nil, nil, fmt.Errorf("cell line past the shard's %d cells", len(grid))
		}
		if g := grid[k]; l.Index != k || l.Algorithm != g.Algorithm || l.Workload != g.Workload ||
			l.N != g.N || l.Seed != g.Seed || l.MaxRounds != g.MaxRounds || (l.Error == "") == (l.Outcome == nil) {
			return nil, nil, fmt.Errorf("cell line %d is (%d, %s, %s, n=%d, seed=%d, max_rounds=%d, outcome %t, error %q), the grid's is (%s, %s, n=%d, seed=%d, max_rounds=%d)",
				k, l.Index, l.Algorithm, l.Workload, l.N, l.Seed, l.MaxRounds, l.Outcome != nil, l.Error,
				g.Algorithm, g.Workload, g.N, g.Seed, g.MaxRounds)
		}
		results = append(results, expt.WireCellResult(offset+k, grid[k], l.FromCache, l.Outcome, l.Error))
	}
	return results, sum, sc.Err()
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
	resp, err := http.DefaultClient.Do(req)
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
	if resp, err := http.DefaultClient.Do(req); err == nil {
		drainClose(resp)
	}
}

// drainClose consumes what remains of a response body (bounded) so
// the transport can reuse the connection, then closes it.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}
