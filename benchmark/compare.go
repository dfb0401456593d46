package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// declared is BENCHMARK.json: the workloads, the metrics, and for the
// end-to-end ones the bound by which a metric may worsen before a
// change counts as a regression.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // the runs of one side spread wider than the bound
	verdictNoBound    = "-"          // per-layer metrics have no bound
)

// judge compares the runs of one metric in two sets. worse is how much
// b's median is worse than a's, as a share of a's.
func judge(a, b []float64, lowerIsBetter bool, bound *float64) (verdict string, worse float64) {
	medA, medB := median(a), median(b)
	worse = ratio(medB-medA, medA)
	if !lowerIsBetter {
		worse = -worse
	}
	if bound == nil {
		return verdictNoBound, worse
	}
	if max(quartileSpread(a), quartileSpread(b)) > *bound {
		// Too noisy to call on medians — unless every run of b beats
		// every run of a.
		bestA, worstB := quantile(a, 0), quantile(b, 1)
		if !lowerIsBetter {
			bestA, worstB = -quantile(a, 1), -quantile(b, 0)
		}
		if worstB < bestA {
			return verdictImproved, worse
		}
		return verdictUnresolved, worse
	}
	switch {
	case worse > *bound:
		return verdictRegressed, worse
	case worse < -*bound:
		return verdictImproved, worse
	}
	return verdictWithin, worse
}

// compareFiles prints, for every (workload, metric) pair two result
// files share, both medians, both spreads and the verdict under the
// bounds of BENCHMARK.json. It reports whether any pair regressed.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) (regressed bool, err error) {
	var decl declared
	var a, b resultFile
	for _, f := range []struct {
		path string
		into any
	}{{benchPath, &decl}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			return false, err
		}
	}
	if a.Meta.Trace != b.Meta.Trace {
		return false, fmt.Errorf("%s is a traced set and %s is not (or the reverse)", aPath, bPath)
	}
	metrics := decl.EndToEnd
	if a.Meta.Trace {
		metrics = decl.PerLayer
	}
	values := func(f resultFile, workload, metric string) (xs []float64) {
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	fmt.Fprintf(w, "a: %s  commit %s  %d runs\nb: %s  commit %s  %d runs\n", aPath, a.Meta.Commit, len(a.Runs), bPath, b.Meta.Commit, len(b.Runs))
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tworse by\tspread a\tspread b\tbound\tverdict")
	for _, wl := range decl.Workloads {
		for _, m := range metrics {
			xa, xb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict, worse := judge(xa, xb, m.Better == "lower", m.Bound)
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.1f%%", 100**m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.1f%%\t%.1f%%\t%s\t%s\n",
				wl.Name, m.Name, m.Unit, median(xa), median(xb), 100*worse,
				100*quartileSpread(xa), 100*quartileSpread(xb), bound, verdict)
			regressed = regressed || verdict == verdictRegressed
		}
	}
	for _, f := range []resultFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct {
				fmt.Fprintf(tw, "%s\tseed %d\t\t\t\t\t\t\t\tWRONG OUTPUT (%d of %d failed)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				regressed = true
			}
		}
	}
	return regressed, tw.Flush()
}
