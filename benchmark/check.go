package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// movedToPerLayer lists, per metric, the workloads on which the metric could
// not meet its bound on the host this benchmark was defined on (2 shared
// vCPUs): the interquartile spread of ten runs over ten seeds was wider than
// the bound in at least one sweep, or the two medians of an A/A run with 9 or
// 15 repetitions were further apart than it. -check prints these cells and
// does not fail on them; README.md gives the spreads measured for each. On a
// quieter host, empty this table and let -check say which cells still belong
// in it.
var movedToPerLayer = map[string][]string{
	"setup_s":             {wlSharedMem, wlNetOpen, wlKVCluster, wlKVDurable, wlParGlobal, wlParSharded},
	"record_events_per_s": {wlSharedMem, wlNetOpen, wlKVCluster, wlKVDurable, wlParGlobal, wlParSharded},
	"replay_events_per_s": {wlSharedMem, wlNetOpen, wlKVCluster, wlKVDurable, wlParGlobal, wlParSharded},
	"record_slowdown":     {wlKVDurable},
	"replay_slowdown":     {wlNetOpen, wlKVCluster},
	"replay_startup_ms":   {wlNetOpen, wlKVCluster},
	"op_latency_p50_us":   {wlKVCluster, wlKVDurable},
	"op_latency_p99_us":   {wlKVCluster, wlKVDurable},
	"recover_ms":          {wlKVDurable},
}

// check is the A/A mode: the whole benchmark twice on the same code and seed,
// the second pass in reverse workload order, and for every cell of the
// end-to-end matrix the two medians, how far they are apart, and the bound.
// Two runs of one program differ only by noise, so the verdict is symmetric:
// a cell fails when the two medians are further apart than its bound in either
// direction, because a metric that moves that far by itself cannot show a
// change of that size. A cell whose own repetitions spread (interquartile
// range over median) wider than the bound in either pass is unresolved in this
// run: the host was too noisy to say anything, which is neither a pass nor a
// failure. It is what a later change uses to show "unchanged" honestly. Exit
// code 1 when a cell fails.
func check(opt options, stdout, stderr io.Writer) int {
	names := workloadNames()
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	var passes [2]map[string]*result
	for i, order := range [][]string{names, reversed} {
		fmt.Fprintf(stdout, "\n# A/A pass %d\n", i+1)
		res, err := runAll(opt, order, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		passes[i] = res
	}

	fmt.Fprintf(stdout, "\n## A/A: same code, same seed, run twice\n")
	fmt.Fprintf(stdout, "%-24s %-12s %14s %14s %8s %6s  %s\n", "metric", "workload", "first", "second", "diff", "bound", "verdict")
	failed := false
	for _, m := range endToEnd {
		for _, w := range names {
			if !m.reportedOn(w) {
				continue
			}
			a, b := passes[0][w].Metrics[m.name], passes[1][w].Metrics[m.name]
			v := verdict(m, w, a, b)
			failed = failed || v == verdictFail
			fmt.Fprintf(stdout, "%-24s %-12s %14s %14s %+7.1f%% %5.0f%%  %s\n",
				m.name, w, fmtValue(a.Median), fmtValue(b.Median), 100*relDiff(a.Median, b.Median), 100*m.boundOn(w), v)
		}
	}
	if failed {
		return 1
	}
	return 0
}

const verdictFail = "FAIL"

// verdict judges one cell of the matrix from the two passes' summaries.
func verdict(m metricDef, workload string, a, b summary) string {
	bound := m.boundOn(workload)
	switch spread := math.Max(a.spread(), b.spread()); {
	case slices.Contains(movedToPerLayer[m.name], workload):
		return "moved-to-per-layer"
	case spread > bound:
		return fmt.Sprintf("unresolved (repetitions spread %.0f%%)", 100*spread)
	case math.Abs(relDiff(a.Median, b.Median)) > bound:
		return verdictFail
	}
	return "pass"
}

// relDiff is (b-a)/a. fail_share has a zero base on a healthy run, so there a
// difference reads as its absolute size.
func relDiff(a, b float64) float64 {
	if a == 0 {
		return b - a
	}
	return (b - a) / a
}
