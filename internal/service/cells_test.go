package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adnet/internal/expt"
)

// randomInt is an Outcome or grid field: zero, a one-byte varint, a
// multi-byte one, a negative one (FinalDiameter and FinalDepth are -1
// on a disconnected final graph) or one near the ends of int64.
func randomInt(rng *rand.Rand) int {
	switch rng.IntN(6) {
	case 0:
		return 0
	case 1:
		return rng.IntN(64)
	case 2:
		return rng.IntN(1 << rng.IntN(50))
	case 3:
		return -1 - rng.IntN(1<<rng.IntN(40))
	case 4:
		return math.MaxInt64 - rng.IntN(3)
	}
	return math.MinInt64 + rng.IntN(3)
}

// outcomeOf is the Outcome whose Fields are v.
func outcomeOf(v [13]int, leaderOK bool) expt.Outcome {
	o := expt.Outcome{LeaderOK: leaderOK}
	for k, f := range o.Fields() {
		*f = v[k]
	}
	return o
}

// randomText strings together pieces encoding/json escapes — <, >, &,
// quotes, backslashes, U+2028/2029, control bytes, invalid UTF-8 — and
// pieces it does not, never empty.
func randomText(rng *rand.Rand) string {
	pieces := []string{"limit <exceeded>", " & ", `"quoted"`, `\`, "\u2028", "\u2029", "\x00", "\x1f", "\t\n",
		"\x7f", "\xff", "\xc3\x28", "é", "ring", "graph-to-star", "round 45: illegal activate of {18,84}"}
	var b strings.Builder
	for range 1 + rng.IntN(4) {
		b.WriteString(pieces[rng.IntN(len(pieces))])
	}
	return b.String()
}

// TestCellRecordRendersMatchJSONFrame is the cell records' property
// test: over random grids and cells — zero, multi-byte, negative and
// near-MaxInt64 varints, every omitempty field zero and non-zero,
// from_cache, max_rounds zero and non-zero, error texts full of what
// encoding/json escapes — each /cells line a subscriber renders is
// exactly jsonFrame of the SweepCell recorded, the log counts exactly
// those bytes as served, and a record decodes to the cell it packed.
func TestCellRecordRendersMatchJSONFrame(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(7, 40))
	names := []string{"graph-to-star", "flood", "ring", "a<b>&c", `quote"d`, "line\u2028sep", "bad\xffutf8"}
	for run := range 300 {
		spec := SweepSpec{
			Algorithms: names[rng.IntN(3):][:1+rng.IntN(3)],
			Workloads:  []string{names[rng.IntN(len(names))]},
		}
		for range 1 + rng.IntN(3) {
			spec.Sizes = append(spec.Sizes, randomInt(rng))
		}
		for range 1 + rng.IntN(4) {
			spec.Seeds = append(spec.Seeds, int64(randomInt(rng)))
		}
		if rng.IntN(2) == 0 {
			spec.MaxRounds = randomInt(rng)
		}
		j := bareSweep(spec)
		var want []byte
		for i, c := range spec.Cells() {
			cell := SweepCell{Index: i, Algorithm: c.Algorithm, Workload: c.Workload, N: c.N, Seed: c.Seed,
				MaxRounds: c.MaxRounds, FromCache: rng.IntN(2) == 0}
			if rng.IntN(4) == 0 {
				cell.Error = randomText(rng)
			} else {
				var v [13]int
				for k := range v {
					if rng.IntN(3) > 0 {
						v[k] = randomInt(rng)
					}
				}
				out := outcomeOf(v, rng.IntN(2) == 0)
				cell.Outcome = &out
			}
			if err := record(j, cell); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			line := jsonFrame(cell)
			want = append(want, line...)

			recs, _ := j.cells.WaitFrames(context.Background(), i)
			if got := j.renderCell(nil, recs[0], i); !bytes.Equal(got, line) {
				t.Fatalf("run %d cell %d rendered\n%q\nwant jsonFrame\n%q", run, i, got, line)
			}
			fromCache, out, errText, err := decodeCell(recs[0])
			if err != nil || fromCache != cell.FromCache || errText != cell.Error ||
				(cell.Outcome != nil && out != *cell.Outcome) {
				t.Fatalf("run %d cell %d decoded to (%v, %+v, %q, %v), packed %+v", run, i, fromCache, out, errText, err, cell)
			}
		}
		j.cells.close()
		if got := renderLog(j.cells, j.renderCell, 0); !bytes.Equal(got, want) {
			t.Fatalf("run %d: /cells body differs from the jsonFrame lines", run)
		}
		if got := j.cells.FrameBytes(); got != int64(len(want)) {
			t.Fatalf("run %d: log counts %d served bytes, /cells serves %d", run, got, len(want))
		}
	}
}

// sweepSingleGrid is the benchmark's sweep-single grid: graph-to-star
// × {line, ring} × eight sizes × 64 seeds from 2^32 on.
func sweepSingleGrid() SweepSpec {
	seeds := make([]int64, 64)
	for k := range seeds {
		seeds[k] = 1<<32 + int64(k)
	}
	return SweepSpec{
		Algorithms: []string{"graph-to-star"},
		Workloads:  []string{"line", "ring"},
		Sizes:      []int{24, 32, 48, 64, 96, 128, 192, 256},
		Seeds:      seeds,
	}
}

// TestSweepRecordLogHoldsLessThanItServes pins what a finished
// sweep-single grid holds — its 1,024 cell records — against the bytes
// /cells serves for them (stream_bytes).
func TestSweepRecordLogHoldsLessThanItServes(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, SweepWorkers: 2})
	sub, _ := postSweepJob(t, srv, sweepSingleGrid())
	awaitSweepState(t, srv, sub.ID, StateDone)
	j, _ := m.GetSweep(sub.ID)
	var held int
	for _, rec := range logLines(j.cells) {
		held += len(rec)
	}
	const wantHeld, wantServed = 20608, 301866
	if served := j.cells.FrameBytes(); held != wantHeld || served != wantServed {
		t.Errorf("records hold %d bytes and serve %d, want %d and %d", held, served, wantHeld, wantServed)
	}
	if 100*held > 7*wantServed {
		t.Errorf("records hold %d bytes, over 7%% of the %d served", held, wantServed)
	}
}

// TestSweepCellsCursorsAndTrailer pins the cursor contract of /cells
// on sweeps that end other than cleanly, and on a coordinator: frame i
// is cell i, every completed drain ends in the summary line whatever
// the cursor, and the trailer is one past the last cell served. It
// covers a sweep canceled while queued (one skip line per cell), a
// sweep canceled mid-grid with subscribers tailing it from three
// cursors since before its first cell, and a coordinator sweep.
func TestSweepCellsCursorsAndTrailer(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
	base := func(s *httptest.Server, id string, cursor int) string {
		return s.URL + "/v1/sweeps/" + id + "/cells?cursor=" + strconv.Itoa(cursor)
	}
	// check drains every cursor 0..cells+1 of a terminal sweep.
	check := func(name string, s *httptest.Server, id string, cells int) []string {
		t.Helper()
		full, trailer := streamLines(t, s.URL+"/v1/sweeps/"+id+"/cells")
		if len(full) != cells+1 || trailer != strconv.Itoa(cells) || !strings.Contains(full[cells], `"done"`) {
			t.Fatalf("%s: %d lines, trailer %q, want %d cells, the summary and %d", name, len(full), trailer, cells, cells)
		}
		for i, line := range full[:cells] {
			var c SweepCell
			if err := json.Unmarshal([]byte(line), &c); err != nil || c.Index != i || string(jsonFrame(c)) != line+"\n" {
				t.Fatalf("%s line %d = %q (%v), want cell %d as jsonFrame renders it", name, i, line, err, i)
			}
		}
		for cursor := 0; cursor <= cells+1; cursor++ {
			tail, trailer := streamLines(t, base(s, id, cursor))
			if want := full[min(cursor, cells):]; !slices.Equal(tail, want) || trailer != strconv.Itoa(max(cursor, cells)) {
				t.Fatalf("%s cursor=%d: %d lines, trailer %q, want the last %d lines and %d",
					name, cursor, len(tail), trailer, len(want), max(cursor, cells))
			}
		}
		return full
	}
	// Canceled while queued: the executor skips every cell.
	queued := slowSweepSpec(1, 2, 3, 4)
	j, err := m.SubmitSweep(context.Background(), queued)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CancelSweep(j.ID); err != nil {
		t.Fatal(err)
	}
	awaitSweepState(t, srv, j.ID, StateCanceled)
	check("canceled while queued", srv, j.ID, queued.NumCells())

	// Canceled mid-grid, tailed from cursors 0..2 since submission.
	long := longSweepSpec(1, 2, 3, 4, 5, 6)
	j, err = m.SubmitSweep(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	type drain struct {
		cursor  int
		lines   []string
		trailer string
	}
	var drains []*drain
	var wg sync.WaitGroup
	for cursor := range 3 {
		d := &drain{cursor: cursor}
		drains = append(drains, d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base(srv, j.ID, d.cursor))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var err2 error
			if d.lines, d.trailer, err2 = readLines(resp); err2 != nil {
				t.Error(err2)
			}
		}()
	}
	waitFor(t, func() bool { return m.metrics.cellsSub.subscribers.Value() == int64(len(drains)) },
		"the subscribers never attached")
	if n := j.cells.Len(); n != 0 {
		t.Fatalf("the long sweep recorded %d cells before its subscribers attached", n)
	}
	if err := m.CancelSweep(j.ID); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	awaitSweepState(t, srv, j.ID, StateCanceled)
	full := check("canceled mid-grid", srv, j.ID, long.NumCells())
	for _, d := range drains {
		if !slices.Equal(d.lines, full[d.cursor:]) || d.trailer != strconv.Itoa(long.NumCells()) {
			t.Fatalf("tail from cursor=%d read %d lines, trailer %q, want %d and %d",
				d.cursor, len(d.lines), d.trailer, len(full)-d.cursor, long.NumCells())
		}
	}

	// A coordinator's /cells: the workers' cells, merged and rendered
	// from the coordinator's own records.
	coord, _ := newCoordinator(t, 2)
	spec := sweepSpec()
	sub, _ := postSweepJob(t, coord, spec)
	awaitSweepState(t, coord, sub.ID, StateDone)
	check("coordinator", coord, sub.ID, spec.NumCells())
}

// TestResubmittedDefaultSweepHitsEveryCell: on a default-config
// manager a resubmitted sweep-single grid — MaxSweepCells cells — is
// answered from the outcome index in full. A cache that scans out its
// own keys before the grid comes round again answers none of them.
func TestResubmittedDefaultSweepHitsEveryCell(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{})
	defer m.Close()
	spec := sweepSingleGrid()
	run := func() SweepSummary {
		t.Helper()
		j, err := m.SubmitSweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for !j.State().terminal() { // 1,024 cells: slow under -race
			time.Sleep(time.Millisecond)
		}
		if st := j.Status(); st.State != StateDone || st.Summary == nil {
			t.Fatalf("sweep ended %s", st.State)
		}
		return *j.Status().Summary
	}
	first := run()
	executed := m.RunsExecuted()
	if first.Executed != spec.NumCells() || executed != int64(spec.NumCells()) {
		t.Fatalf("first sweep executed %d cells (RunsExecuted %d), want %d", first.Executed, executed, spec.NumCells())
	}
	if again := run(); again.CacheHits != spec.NumCells() || again.Executed != 0 {
		t.Fatalf("resubmitted sweep: %d cache hits and %d executed, want %d and 0", again.CacheHits, again.Executed, spec.NumCells())
	}
	if got := m.RunsExecuted(); got != executed {
		t.Fatalf("RunsExecuted moved from %d to %d on a resubmitted grid", executed, got)
	}
}

// TestRetainedSweepHeap measures what a finished sweep-single grid
// keeps on the heap: a Manager retaining 64 of them, runtime.MemStats
// after GC, divided by 64. The 64 are one grid resubmitted, so every
// cell after the first sweep is a cache hit; a record's size does not
// depend on that. Not parallel: the heap is the process's.
func TestRetainedSweepHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 65 sweeps of 1,024 cells")
	}
	const sweeps = 64
	m := NewManager(Config{Workers: 1, SweepWorkers: 2, RetainSweeps: sweeps + 1})
	defer m.Close()
	spec := sweepSingleGrid()
	run := func() {
		j, err := m.SubmitSweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for !j.State().terminal() {
			time.Sleep(time.Millisecond)
		}
	}
	run() // fills the result cache, which the measured sweeps share
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for range sweeps {
		run()
	}
	perSweep := (int64(heap()) - int64(before)) / sweeps
	t.Logf("retained heap: %d B a finished %d-cell sweep", perSweep, spec.NumCells())
	if perSweep > 64<<10 {
		t.Errorf("a finished sweep retains %d B of heap, over 64 KiB", perSweep)
	}
}
