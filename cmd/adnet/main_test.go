package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"adnet/internal/expt"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed as the command (see adnet).
func TestMain(m *testing.M) {
	if os.Getenv("ADNET_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// adnet runs the command with args and returns its stdout, its stderr
// and whether it exited zero.
func adnet(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ADNET_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), err == nil
}

// tables renders tabs as the command prints them: each table's String
// followed by a newline.
func tables(tabs ...*expt.Table) string {
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.String() + "\n")
	}
	return b.String()
}

func TestExperimentsPrintTheTables(t *testing.T) {
	t.Parallel()
	var want []*expt.Table
	for _, id := range []string{"E3", "E9"} {
		tab, err := expt.Run(id, []int{64})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, tab)
	}
	out, stderr, ok := adnet(t, "-experiments", "E3,E9", "-n", "64")
	if !ok || out != tables(want...) {
		t.Fatalf("-experiments E3,E9 -n 64: ok=%v stderr=%q\ngot:\n%s\nwant:\n%s", ok, stderr, out, tables(want...))
	}

	t1, err := expt.TradeoffTable(64)
	if err != nil {
		t.Fatal(err)
	}
	out, stderr, ok = adnet(t, "-tradeoff", "64")
	if !ok || out != tables(t1) {
		t.Fatalf("-tradeoff 64: ok=%v stderr=%q\ngot:\n%s\nwant:\n%s", ok, stderr, out, tables(t1))
	}
}

// TestRejectedFlags: an unknown experiment, a size past graph.MaxNodes
// and every flag set outside the mode that reads it exit non-zero with
// a message naming it.
func TestRejectedFlags(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args []string
		flag string // the flag or ID the message must name
	}{
		{[]string{"-experiments", "E99", "-n", "32"}, "E99"},
		{[]string{"-gate", "/nonexistent.json", "-n", "16"}, "-gate"},
		{[]string{"-verify", "-n", "16"}, "-verify"},
		{[]string{"-robustness", "-verify", "-graph", "line", "-n", "16", "-seeds", "1", "-dynamics", "crash"}, "-verify"},
		{[]string{"-dynamics", "crash", "-n", "16"}, "-dynamics"},
		{[]string{"-aggregate", "-dynamics", "crash", "-n", "16", "-seeds", "1"}, "-dynamics"},
		{[]string{"-algos", "flood", "-n", "16"}, "-algos"},
		{[]string{"-seeds", "1,2", "-n", "16"}, "-seeds"},
		{[]string{"-csv", "-n", "16"}, "-csv"},
		{[]string{"-json", "-n", "16"}, "-json"},
		{[]string{"-aggregate", "-seed", "3", "-n", "16", "-seeds", "1"}, "-seed"},
		{[]string{"-experiments", "E3", "-verify"}, "-verify"},
		{[]string{"-experiments", "E3", "-aggregate"}, "-experiments"},
		{[]string{"-tradeoff", "64", "-robustness"}, "-tradeoff"},
		{[]string{"-aggregate", "-robustness", "-n", "16", "-seeds", "1"}, "-robustness"},
		{[]string{"-n", "2147483649"}, "graph.MaxNodes"},
		{[]string{"-aggregate", "-n", "2147483649", "-seeds", "1"}, "graph.MaxNodes"},
	} {
		out, stderr, ok := adnet(t, tc.args...)
		if ok || !strings.Contains(stderr, tc.flag) {
			t.Errorf("adnet %s: exit ok=%v, stderr %q, want a failure naming %s (stdout %q)",
				strings.Join(tc.args, " "), ok, stderr, tc.flag, out)
		}
	}
}

// TestAggregateVerifyFailsOnAnErrorCell: -aggregate -verify exits
// non-zero exactly when a cell is an error. graph-to-star on
// bounded-degree/256 seed 50 fails its verdict (ROADMAP item 1 lists
// it); seed 49 passes.
func TestAggregateVerifyFailsOnAnErrorCell(t *testing.T) {
	t.Parallel()
	args := []string{"-aggregate", "-verify", "-graph", "bounded-degree", "-n", "256", "-seeds"}
	if out, stderr, ok := adnet(t, append(args, "49")...); !ok {
		t.Fatalf("seed 49: exit non-zero, stderr %q, stdout %q", stderr, out)
	}
	out, stderr, ok := adnet(t, append(args, "49,50")...)
	if ok || !strings.Contains(stderr, "verification failed") || !strings.Contains(stderr, "1 of 2 runs are errors") {
		t.Fatalf("seeds 49,50: exit ok=%v, stderr %q, want a verification failure naming 1 of 2 runs (stdout %q)", ok, stderr, out)
	}
}
