// djbenchrows turns the benchmark module's -result files into rows of
// BENCH_benchmark.json, the measured trajectory:
//
//	djbenchrows -pr N -side parent|change -source 'EXPERIMENTS.md: <heading>'
//	    [-append BENCH_benchmark.json] result.json...
//
// The files are one side's runs of `benchmark -workload W -seed S -result F`.
// They are grouped by workload and seed, and each group gives one row per
// metric of rowMetrics: the median, quartiles and count over the group's
// runs of each run's own figure (the median its result file reports). A
// group's runs must be untraced and of one scale. A result file names no host
// or toolchain, so a row carries the CPU count of the host this tool runs on
// and the Go version it was built with: run it, with `go run`, where the
// benchmark ran and with the toolchain that built it. The quartiles are the
// benchmark's own (Python's statistics.quantiles, exclusive method).
// Without -append the rows are printed, one JSON object a line, in the
// trajectory file's format; with it they are added to that file's rows.
// Exits 0 on success, 1 when a file cannot be read, lacks a metric or does
// not fit its group, 2 on a usage error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/benchrow"
)

// rowMetrics are the end-to-end metrics, the event rates behind the
// slowdowns and the failed share: what a change's rows have carried so far.
var rowMetrics = []string{"setup_s", "peak_rss_mb", "record_slowdown", "replay_slowdown", "record_events_per_s", "replay_events_per_s", "fail_share"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is what a row needs of a benchmark -result file.
type result struct {
	Workload string                               `json:"workload"`
	Seed     int                                  `json:"seed"`
	Scale    float64                              `json:"scale"`
	Traced   bool                                 `json:"traced"`
	Metrics  map[string]struct{ Median *float64 } `json:"metrics"`
}

type options struct {
	pr     int
	side   string
	source string
	nproc  int
	goVer  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djbenchrows", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var appendTo string
	fs.IntVar(&opt.pr, "pr", 0, "the change the rows belong to")
	fs.StringVar(&opt.side, "side", "", "parent or change")
	fs.StringVar(&opt.source, "source", "", "the EXPERIMENTS section of the table: 'EXPERIMENTS.md: <heading>'")
	fs.StringVar(&appendTo, "append", "", "add the rows to this trajectory file instead of printing them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.nproc, opt.goVer = runtime.NumCPU(), runtime.Version()
	if opt.pr <= 0 || (opt.side != "parent" && opt.side != "change") || !strings.Contains(opt.source, ": ") || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: djbenchrows -pr N -side parent|change -source 'EXPERIMENTS.md: <heading>' [-append file] result.json...")
		return 2
	}
	var results []result
	for _, name := range fs.Args() {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(stderr, "djbenchrows:", err)
			return 1
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			fmt.Fprintf(stderr, "djbenchrows: %s: %v\n", name, err)
			return 1
		}
		results = append(results, r)
	}
	rows, err := buildRows(opt, results)
	if err != nil {
		fmt.Fprintln(stderr, "djbenchrows:", err)
		return 1
	}
	if appendTo == "" {
		for _, r := range rows {
			fmt.Fprintln(stdout, format(r))
		}
		return 0
	}
	if err := appendRows(appendTo, rows); err != nil {
		fmt.Fprintln(stderr, "djbenchrows:", err)
		return 1
	}
	return 0
}

// buildRows groups one side's runs by workload and seed, in the order the
// groups first appear, and summarizes each metric over a group's runs.
func buildRows(opt options, results []result) ([]benchrow.Row, error) {
	type group struct {
		workload string
		seed     int
	}
	var order []group
	runs := map[group][]result{}
	for _, r := range results {
		g := group{r.Workload, r.Seed}
		switch {
		case r.Workload == "":
			return nil, errors.New("a result file names no workload")
		case r.Traced:
			return nil, fmt.Errorf("a %s run (seed %d) is traced: its timings carry the tracer's cost", g.workload, g.seed)
		case runs[g] == nil:
			order = append(order, g)
		case runs[g][0].Scale != r.Scale:
			return nil, fmt.Errorf("%s runs (seed %d) of scales %v and %v", g.workload, g.seed, runs[g][0].Scale, r.Scale)
		}
		runs[g] = append(runs[g], r)
	}
	var rows []benchrow.Row
	for _, g := range order {
		for _, m := range rowMetrics {
			var values []float64
			for _, r := range runs[g] {
				v := r.Metrics[m].Median
				if v == nil {
					return nil, fmt.Errorf("a %s run (seed %d) has no metric %q", g.workload, g.seed, m)
				}
				values = append(values, *v)
			}
			sort.Float64s(values)
			rows = append(rows, benchrow.Row{
				PR: opt.pr, Side: opt.side, Workload: g.workload, Seed: g.seed, Metric: m,
				Median: quantile(values, 0.5), Q1: quantile(values, 0.25), Q3: quantile(values, 0.75),
				N: len(values), NProc: opt.nproc, Go: opt.goVer, Source: opt.source,
			})
		}
	}
	return rows, nil
}

// quantile interpolates the p-quantile of sorted values at rank p*(n+1),
// clamped to their range: the benchmark's quartiles.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return sorted[0]
	case j >= n:
		return sorted[n-1]
	}
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

// format writes a row as the trajectory file does: one line, ", " and ": "
// between fields.
func format(r benchrow.Row) string {
	fields := []struct {
		key string
		val any
	}{
		{"pr", r.PR}, {"side", r.Side}, {"workload", r.Workload}, {"seed", r.Seed},
		{"metric", r.Metric}, {"median", r.Median}, {"q1", r.Q1}, {"q3", r.Q3},
		{"n", r.N}, {"nproc", r.NProc}, {"go", r.Go}, {"source", r.Source},
	}
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = fmt.Sprintf("%q: %s", f.key, marshal(f.val))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func marshal(v any) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // ints, floats and strings always encode
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// appendRows adds rows to the trajectory file at path, keeping its
// description and every earlier row byte for byte.
func appendRows(path string, rows []benchrow.Row) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file struct {
		Description string            `json:"description"`
		Rows        []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	lines := make([]string, 0, len(file.Rows)+len(rows))
	for _, r := range file.Rows {
		lines = append(lines, string(r))
	}
	for _, r := range rows {
		lines = append(lines, format(r))
	}
	out := "{\n \"description\": " + marshal(file.Description) + ",\n \"rows\": [\n  " +
		strings.Join(lines, ",\n  ") + "\n ]\n}\n"
	return os.WriteFile(path, []byte(out), 0o644)
}
