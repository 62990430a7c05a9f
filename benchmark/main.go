// The repository's benchmark: one program that records, replays, measures log
// size and recovers, over six workloads.
//
//	go run -C benchmark .                      every workload, untraced
//	go run -C benchmark . -trace 1             every workload traced, then the ladder
//	go run -C benchmark . -workload kv-cluster one workload, in this process
//	go run -C benchmark . -check               the benchmark against itself (A/A)
//
// Each workload runs in a process of its own. README.md in this directory
// defines every workload and metric; BENCHMARK.json at the root is the
// contract a later change is judged by. The directory is a module of its own
// (go.mod replaces repro with the parent directory), so the commands run from
// the repository's root with -C, or from here without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
}

func run(args []string, stdout, stderr io.Writer, began time.Time) int {
	opt := options{watchdog: defaultWatchdog}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "run this workload in this process (default: every workload, a process each)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs and of each repetition's network")
	fs.Float64Var(&opt.seconds, "seconds", 0, "stop starting timed repetitions after this many seconds (0: count them with -reps)")
	fs.IntVar(&opt.reps, "reps", 0, "timed repetitions (0: 9, or as many as -seconds allows)")
	fs.Float64Var(&opt.scale, "scale", 1, "multiplier on every workload's size")
	fs.StringVar(&opt.dir, "dir", ".bench_out", "directory for WAL files, saved logs and trace-<workload>.json")
	trace := fs.Int("trace", 0, "1: add traced repetitions and the ladder, and print the per-layer metrics")
	fs.BoolVar(&opt.check, "check", false, "run the whole benchmark twice on this code and compare (A/A)")
	fs.StringVar(&opt.result, "result", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *trace != 0
	if opt.scale <= 0 || opt.seconds < 0 || opt.reps < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -scale must be positive, -seconds and -reps not negative, and there are no positional arguments")
		return 2
	}
	return execute(opt, stdout, stderr, began)
}

// execute runs what the options select and returns the exit code.
func execute(opt options, stdout, stderr io.Writer, began time.Time) int {
	switch {
	case opt.check:
		return check(opt, stdout, stderr)
	case opt.workload == "":
		results, err := runAll(opt, workloadNames(), stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printMatrix(stdout, results)
		return 0
	}
	res, err := runWorkload(opt, stdout, began)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res.print(stdout)
	if opt.result != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err == nil {
			err = os.WriteFile(opt.result, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	// Failed operations are in the numbers; they do not fail the run.
	fmt.Fprintln(stdout, res.contractLine())
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs the named workloads in order, each in a child process of this
// binary, and returns their results by name.
func runAll(opt options, names []string, stdout, stderr io.Writer) (map[string]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	results := map[string]*result{}
	for _, name := range names {
		file := filepath.Join(opt.dir, "result-"+name+".json")
		args := []string{
			"-workload", name,
			"-seed", strconv.FormatInt(opt.seed, 10),
			"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
			"-reps", strconv.Itoa(opt.reps),
			"-scale", strconv.FormatFloat(opt.scale, 'g', -1, 64),
			"-dir", opt.dir,
			"-result", file,
		}
		if opt.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		res := &result{}
		if err := json.Unmarshal(data, res); err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		results[name] = res
	}
	return results, nil
}

// printMatrix prints the end-to-end matrix: one row per metric, one column
// per workload, "-" where a metric is not in a workload's row.
func printMatrix(out io.Writer, results map[string]*result) {
	fmt.Fprintf(out, "\n## end-to-end medians\n%-24s", "")
	for _, w := range workloads {
		fmt.Fprintf(out, " %12s", w.name)
	}
	fmt.Fprintln(out)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "%-24s", m.name)
		for _, w := range workloads {
			res := results[w.name]
			if res == nil || !m.reportedOn(w.name) {
				fmt.Fprintf(out, " %12s", "-")
				continue
			}
			fmt.Fprintf(out, " %12s", fmtValue(res.Metrics[m.name].Median))
		}
		fmt.Fprintf(out, "  %s\n", m.unit)
	}
}
