package expt

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tab.Columns)
	return ""
}

func cellInt(t *testing.T, tab *Table, row int, col string) int {
	t.Helper()
	v, err := strconv.Atoi(cell(t, tab, row, col))
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not an int", col, row, cell(t, tab, row, col))
	}
	return v
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell %s[%d] not a float", col, row)
	}
	return v
}

func TestAllExperimentsRunSmall(t *testing.T) {
	t.Parallel()
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tab, err := Run(id, []int{32, 64})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			if !strings.Contains(tab.String(), tab.ID) {
				t.Fatalf("%s: render broken", id)
			}
		})
	}
}

func TestE3ShapeHolds(t *testing.T) {
	t.Parallel()
	tab, err := E3GraphToStar([]int{128, 512})
	if err != nil {
		t.Fatal(err)
	}
	// E3GraphToStar fails unless every row is within core.StarBound,
	// whose 4·n·⌈log₂ n⌉ activations hold act/(n log n) to 4.
	for i := range tab.Rows {
		if cell(t, tab, i, "leaderOK") != "true" {
			t.Errorf("row %d: leader election failed", i)
		}
	}
}

func TestE9SeparationGrows(t *testing.T) {
	t.Parallel()
	tab, err := E9DistributedActivations([]int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	r0 := cellFloat(t, tab, 0, "ratio")
	r1 := cellFloat(t, tab, 1, "ratio")
	if r1 <= r0 {
		t.Errorf("separation should grow with n: %v then %v", r0, r1)
	}
}

// TestLognIsCeilLog2: the log columns are ⌈log₂⌉, exact at the powers
// of two every default size is — E6's log2(n) at 64 and E8's log2(2n)
// at 64 are 6 and 7, not one more.
func TestLognIsCeilLog2(t *testing.T) {
	t.Parallel()
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 63: 6, 64: 6, 65: 7, 4096: 12} {
		if got := logn(n); got != want {
			t.Errorf("logn(%d) = %d, want %d", n, got, want)
		}
	}
	e6, err := E6TimeLowerBound([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	if got := cellInt(t, e6, 0, "log2(n)"); got != 6 {
		t.Errorf("E6 log2(n) at n=64 = %d, want 6", got)
	}
	e8, err := E8CentralizedEuler([]int{64})
	if err != nil {
		t.Fatal(err)
	}
	if got := cellInt(t, e8, 0, "log2(2n)"); got != 7 {
		t.Errorf("E8 log2(2n) at n=64 = %d, want 7", got)
	}
}

func TestE12SpeedupGrows(t *testing.T) {
	t.Parallel()
	tab, err := E12Compose([]int{64, 512})
	if err != nil {
		t.Fatal(err)
	}
	s0 := cellFloat(t, tab, 0, "speedup")
	s1 := cellFloat(t, tab, 1, "speedup")
	if s1 <= s0 {
		t.Errorf("composition speedup should grow with n: %v then %v", s0, s1)
	}
	if s1 < 2 {
		t.Errorf("composition should clearly beat flooding at n=512: %v", s1)
	}
}

func TestTradeoffTable(t *testing.T) {
	t.Parallel()
	tab, err := TradeoffTable(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Algorithms()) {
		t.Fatalf("rows %d, want %d", len(tab.Rows), len(Algorithms()))
	}
	// The clique strategy must dominate everyone on activations.
	var clique, star int
	for i := range tab.Rows {
		switch cell(t, tab, i, "algorithm") {
		case AlgoClique:
			clique = cellInt(t, tab, i, "totalAct")
		case AlgoStar:
			star = cellInt(t, tab, i, "totalAct")
		}
	}
	if clique <= star {
		t.Errorf("clique (%d) should cost more activations than star (%d)", clique, star)
	}
}

func TestWorkloadsAndAlgorithmNames(t *testing.T) {
	t.Parallel()
	for _, w := range []string{"line", "ring", "random-tree", "bounded-degree", "random", "star"} {
		g, err := Workload(w, 20, 1)
		if err != nil || g.NumNodes() != 20 {
			t.Errorf("workload %s: %v", w, err)
		}
	}
	if _, err := Workload("nope", 10, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	r := NewRunner()
	defer r.Close()
	if _, err := r.RunAlgorithm("nope", nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestOutcomeRecordRoundTrip: a record decodes to the outcome and the
// holder's flags it was appended with, whatever the field values, and
// a record that is empty, cut short or followed by more bytes is an
// error, not an outcome.
func TestOutcomeRecordRoundTrip(t *testing.T) {
	t.Parallel()
	for _, o := range []Outcome{
		{},
		{N: 32, Rounds: 33, TotalMessages: 1566, FinalDiameter: 31, FinalDepth: 31, LeaderOK: true},
		{N: 1 << 40, FinalDiameter: -1, FinalDepth: -1, EnvActivations: 15, Crashes: math.MaxInt64, Restarts: math.MinInt64},
	} {
		for _, flags := range []byte{0, 1, 0x7f} {
			rec := AppendOutcome([]byte{0xee}, flags, &o)[1:]
			gotFlags, got, err := ReadOutcome(rec)
			if err != nil || gotFlags != flags || got != o {
				t.Fatalf("record %x of (%#x, %+v) read as (%#x, %+v, %v)", rec, flags, o, gotFlags, got, err)
			}
			for _, bad := range [][]byte{nil, rec[:len(rec)-1], append(rec[:len(rec):len(rec)], 0)} {
				if _, _, err := ReadOutcome(bad); err == nil {
					t.Errorf("record %x read without an error", bad)
				}
			}
		}
	}
}
