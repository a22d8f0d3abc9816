package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) pair.
const (
	within     = "within"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges B against A for one metric. B has regressed when its value
// is worse than A's by more than the bound. When either side's own spread
// is wider than the bound, the pair cannot tell a change of that size from
// noise and is unresolved rather than unchanged.
func verdict(d metricDef, a, b summary) (worse float64, v string) {
	worse = ratio(b.Value-a.Value, a.Value)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(a.spread(d.estimator()), b.spread(d.estimator())) > d.Bound:
		return worse, unresolved
	case worse > d.Bound:
		return worse, regressed
	}
	return worse, within
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Env.Traced {
		return f, fmt.Errorf("%s holds a traced run: end-to-end metrics are compared from untraced runs only", path)
	}
	return f, nil
}

// compareFiles prints one row per (metric, workload) present in both
// results files and returns 1 when any pair regressed, 2 on unreadable
// input, 0 otherwise. The bounds are the ones BENCHMARK.json carries (a
// test keeps the two in step), plus the durable-only bounds.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, side := range []struct {
		label, path string
		env         environment
	}{{"A", pathA, a.Env}, {"B", pathB, b.Env}} {
		fmt.Fprintf(stdout, "%s: %s  commit %s dirty=%t  %s  GOMAXPROCS %d  fs %s  seed %d\n", side.label, side.path,
			side.env.Commit, side.env.Dirty, side.env.GoVersion, side.env.GOMAXPROCS, side.env.Filesystem, side.env.Seed)
	}
	fmt.Fprintf(stdout, "%-10s %-22s %12s %-25s %12s %-25s %8s %6s  %s\n",
		"workload", "metric", "A value", "A min-max", "B value", "B min-max", "worse", "bound", "verdict")
	counts := map[string]int{}
	for i := range workloads {
		name := workloads[i].name
		ra, okA := a.Workloads[name]
		rb, okB := b.Workloads[name]
		if !okA || !okB {
			continue
		}
		for _, d := range gated {
			sa, okA := ra.Metrics[d.Name]
			sb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			worse, v := verdict(d, sa, sb)
			counts[v]++
			fmt.Fprintf(stdout, "%-10s %-22s %12.6g %-25s %12.6g %-25s %+7.1f%% %5.0f%%  %s\n",
				name, d.Name, sa.Value, fmt.Sprintf("%.6g-%.6g", sa.Min, sa.Max),
				sb.Value, fmt.Sprintf("%.6g-%.6g", sb.Min, sb.Max), 100*worse, 100*d.Bound, v)
		}
		// Any increase in the share of transactions that never committed
		// is a regression.
		fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted))
		v := within
		if fb > fa {
			v = regressed
		}
		counts[v]++
		fmt.Fprintf(stdout, "%-10s %-22s %12.6g %-25s %12.6g %-25s %8s %6s  %s\n", name, "failed_ratio", fa, "", fb, "", "", "0%", v)
	}
	fmt.Fprintf(stdout, "%d within, %d unresolved, %d regressed\n", counts[within], counts[unresolved], counts[regressed])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
