package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"adnet/internal/dynamics"
	"adnet/internal/expt"
	"adnet/internal/fleet"
)

const (
	okLine  = `{"index":0,"algorithm":"flood","workload":"line","n":32,"seed":1,"from_cache":false,"outcome":{"N":32,"Rounds":33,"LastActivity":0,"TotalActivations":0,"MaxActivatedEdges":0,"MaxActivatedDegree":0,"TotalMessages":62,"FinalDiameter":31,"FinalDepth":31,"LeaderOK":true}}`
	errLine = `{"index":1,"algorithm":"flood","workload":"line","n":32,"seed":2,"from_cache":false,"error":"expt: cell skipped: sim: run canceled"}`

	// cellRecordJSON is what a server journaled per finished ok cell
	// before the packed cell record. It is no longer written, and still
	// read (TestOldJournalsResume).
	cellRecordJSON = `{"run_key":"flood|line|n=32|seed=1|maxr=0","cell":` + okLine + `}`

	// shardRecord is what a coordinator journaled per completed shard
	// before it wrote cell records, and shardRecordWithGroups what it
	// journaled while the shard's aggregate was stored next to its
	// cells. Neither is written any more; both are still read
	// (TestCoordinatorResumesShardRecords).
	shardRecord           = `{"key":"sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=0|shard=0|off=0|cells=2","index":0,"offset":0,"cells":[` + okLine + `,` + errLine + `]}`
	shardGroups           = `[{"algorithm":"flood","workload":"line","n":32,"seeds":1,"errors":1,"leaders_ok":1,"rounds":{"mean":33,"min":33,"max":33,"stddev":0},"total_activations":{"mean":0,"min":0,"max":0,"stddev":0},"max_activated_edges":{"mean":0,"min":0,"max":0,"stddev":0},"max_activated_degree":{"mean":0,"min":0,"max":0,"stddev":0},"total_messages":{"mean":62,"min":62,"max":62,"stddev":0}}]`
	shardRecordWithGroups = `{"key":"sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=0|shard=0|off=0|cells=2","index":0,"offset":0,"cells":[` + okLine + `,` + errLine + `],"groups":` + shardGroups + `}`
)

// TestKeyAndWireGoldens pins, as literal strings generated at the
// commit before the spec/key/wire types were collapsed into expt, every
// byte sequence another process or a later process life depends on:
// run and sweep keys (cache entries, job IDs, journal file names), the
// NDJSON lines of a cell stream, the body a coordinator POSTs for a
// shard, and the journal record payloads. A change to any of them
// strands caches, journals and mixed-version fleets; it must be
// deliberate and show up in this diff.
func TestKeyAndWireGoldens(t *testing.T) {
	t.Parallel()
	marshal := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	dyn := &dynamics.Spec{Class: dynamics.ClassEdgeChurn}
	run := RunSpec{Algorithm: "flood", Workload: "line", N: 32, Seed: 1}
	runCapped, runDyn, runBoth := run, run, run
	runCapped.MaxRounds = 500
	runDyn.Dynamics = dyn
	runBoth.MaxRounds, runBoth.Dynamics = 500, dyn

	sweep := SweepSpec{
		Algorithms: []string{"flood", "graph-to-star"},
		Workloads:  []string{"line"},
		Sizes:      []int{32, 64},
		Seeds:      []int64{1, 2},
	}
	sweepDyn := sweep
	sweepDyn.MaxRounds, sweepDyn.Dynamics = 500, dyn
	shards, shardsDyn := fleet.PlanShards(sweep), fleet.PlanShards(sweepDyn)

	out := expt.Outcome{N: 32, Rounds: 33, TotalMessages: 62, FinalDiameter: 31, FinalDepth: 31, LeaderOK: true}
	outDyn := expt.Outcome{N: 32, Rounds: 12, TotalMessages: 700, FinalDiameter: 6, FinalDepth: 4, LeaderOK: true,
		EnvActivations: 15, EnvDeactivations: 3, Crashes: 1, Restarts: 1}
	grid := sweep.Cells()
	okCell := SweepCell{Index: 0, Algorithm: grid[0].Algorithm, Workload: grid[0].Workload, N: grid[0].N, Seed: grid[0].Seed, Outcome: &out}
	hitCell := okCell
	hitCell.FromCache = true
	errCell := expt.WireCell{Index: 1, Algorithm: "flood", Workload: "line", N: 32, Seed: 2,
		Error: "expt: cell skipped: sim: run canceled"}
	dynGrid := sweepDyn.Cells()[1]
	dynCell := SweepCell{Index: 3, Algorithm: dynGrid.Algorithm, Workload: dynGrid.Workload, N: dynGrid.N, Seed: dynGrid.Seed,
		MaxRounds: dynGrid.MaxRounds, Outcome: &outDyn}

	for _, tc := range []struct{ name, got, want string }{
		// Keys. A sweep cell and a run with equal parameters share one —
		// the property the result cache relies on.
		{"run key", run.Key(), "flood|line|n=32|seed=1|maxr=0"},
		{"run key, max_rounds", runCapped.Key(), "flood|line|n=32|seed=1|maxr=500"},
		{"run key, dynamics", runDyn.Key(), "flood|line|n=32|seed=1|maxr=0|dyn=edge-churn,k=1,preserve=false,seed=0"},
		{"grid cell key", grid[0].Key(), "flood|line|n=32|seed=1|maxr=0"},
		{"run key, max_rounds and dynamics", runBoth.Key(), "flood|line|n=32|seed=1|maxr=500|dyn=edge-churn,k=1,preserve=false,seed=0"},
		{"grid cell key, max_rounds and dynamics", sweepDyn.Cells()[0].Key(), "flood|line|n=32|seed=1|maxr=500|dyn=edge-churn,k=1,preserve=false,seed=0"},
		{"run job ID hash", shortHash(run.Key()), "80d22b9d"},
		{"sweep key", sweep.Key(), "sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=0"},
		{"sweep key, max_rounds and dynamics", sweepDyn.Key(), "sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=500|dyn=edge-churn,k=1,preserve=false,seed=0"},
		{"sweep job ID hash", shortHash(sweep.Key()), "318e16a1"},
		{"journal file name", filepath.Base(sweepJournalPath("", sweep.Key())), "318e16a14fd75667.wal"},
		{"journal file name, dynamics", filepath.Base(sweepJournalPath("", sweepDyn.Key())), "84e64701f5aae6a4.wal"},

		// Request bodies.
		{"run body", marshal(runDyn), `{"algorithm":"flood","workload":"line","n":32,"seed":1,"dynamics":{"class":"edge-churn"}}`},
		{"sweep body", marshal(sweepDyn), `{"algorithms":["flood","graph-to-star"],"workloads":["line"],"sizes":[32,64],"seeds":[1,2],"max_rounds":500,"dynamics":{"class":"edge-churn"}}`},
		{"shard dispatch body", marshal(shards[0].Spec), `{"algorithms":["flood"],"workloads":["line"],"sizes":[32],"seeds":[1,2]}`},
		{"shard dispatch body, dynamics", marshal(shardsDyn[1].Spec), `{"algorithms":["flood"],"workloads":["line"],"sizes":[64],"seeds":[1,2],"max_rounds":500,"dynamics":{"class":"edge-churn"}}`},

		// Cell stream lines.
		{"ok cell line", string(jsonFrame(okCell)), okLine + "\n"},
		{"cache-hit cell line", string(jsonFrame(hitCell)), `{"index":0,"algorithm":"flood","workload":"line","n":32,"seed":1,"from_cache":true,"outcome":{"N":32,"Rounds":33,"LastActivity":0,"TotalActivations":0,"MaxActivatedEdges":0,"MaxActivatedDegree":0,"TotalMessages":62,"FinalDiameter":31,"FinalDepth":31,"LeaderOK":true}}` + "\n"},
		{"error cell line", string(jsonFrame(errCell)), errLine + "\n"},
		{"perturbed cell line", string(jsonFrame(dynCell)), `{"index":3,"algorithm":"flood","workload":"line","n":32,"seed":2,"max_rounds":500,"from_cache":false,"outcome":{"N":32,"Rounds":12,"LastActivity":0,"TotalActivations":0,"MaxActivatedEdges":0,"MaxActivatedDegree":0,"TotalMessages":700,"FinalDiameter":6,"FinalDepth":4,"LeaderOK":true,"EnvActivations":15,"EnvDeactivations":3,"Crashes":1,"Restarts":1}}` + "\n"},
		{"summary line", string(jsonFrame(&SweepSummary{Done: true, Cells: 8, CacheHits: 1, Executed: 7})), `{"done":true,"cells":8,"cache_hits":1,"executed":7,"errors":0}` + "\n"},
		{"summary line, resumed", string(jsonFrame(&SweepSummary{Cells: 8, CacheHits: 3, Executed: 4, Errors: 1, Replayed: 2})), `{"done":false,"cells":8,"cache_hits":3,"executed":4,"errors":1,"replayed":2}` + "\n"},

		// Journal record payloads.
		{"header record", marshal(sweepHeader{Key: sweepDyn.Key(), Spec: sweepDyn, Cells: sweepDyn.NumCells()}), `{"key":"sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=500|dyn=edge-churn,k=1,preserve=false,seed=0","spec":{"algorithms":["flood","graph-to-star"],"workloads":["line"],"sizes":[32,64],"seeds":[1,2],"max_rounds":500,"dynamics":{"class":"edge-churn"}},"cells":8}`},
		{"header record, plain", marshal(sweepHeader{Key: sweep.Key(), Spec: sweep, Cells: sweep.NumCells()}), `{"key":"sweep|a=flood,graph-to-star|w=line|n=32,64|seed=1,2|maxr=0","spec":{"algorithms":["flood","graph-to-star"],"workloads":["line"],"sizes":[32,64],"seeds":[1,2]},"cells":8}`},
		// The packed cell record: uvarint(grid index), then the outcome
		// record — LeaderOK in the flags byte, then the 13 integer fields
		// as zigzag varints.
		{"cell record", fmt.Sprintf("%x", expt.AppendOutcome(binary.AppendUvarint(nil, 0), 0, okCell.Outcome)), "00804042000000007c3e3e00000000"},
		{"done record", marshal(doneRecord{State: StateDone, Summary: SweepSummary{Done: true, Cells: 8, Executed: 8}}), `{"state":"done","summary":{"done":true,"cells":8,"cache_hits":0,"executed":8,"errors":0}}`},
	} {
		if tc.got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, tc.got, tc.want)
		}
	}
}
