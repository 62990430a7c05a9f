// Package benchrow is one row of BENCH_benchmark.json, the measured
// trajectory, and the rules a row keeps on its own: cmd/djbenchrows writes
// rows, and the repository's trajectory test holds the file to the same
// rules.
package benchrow

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Row is what the benchmark module measured for one side (the parent commit
// or the change) of one change, on one workload and seed: the median of the
// side's runs, their quartiles and count, and the host they ran on. Source
// names the EXPERIMENTS section whose table the row is, as "<file>:
// <heading>". The fields are in the file's order.
type Row struct {
	PR       int     `json:"pr"`
	Side     string  `json:"side"`
	Workload string  `json:"workload"`
	Seed     int     `json:"seed"`
	Metric   string  `json:"metric"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	N        int     `json:"n"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	Source   string  `json:"source"`
}

// Declared holds the names a BENCHMARK.json declares: its workloads, and its
// end-to-end and per-layer metrics.
type Declared struct {
	Workloads, Metrics map[string]bool
}

// ReadDeclared reads the names the BENCHMARK.json at path declares.
func ReadDeclared(path string) (Declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Declared{}, err
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return Declared{}, fmt.Errorf("%s: %v", path, err)
	}
	d := Declared{map[string]bool{}, map[string]bool{}}
	for _, w := range spec.Workloads {
		d.Workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		d.Metrics[m.Name] = true
	}
	return d, nil
}

// Section splits Source into the EXPERIMENTS file and the heading it names;
// ok is false unless the file is EXPERIMENTS.md or EXPERIMENTS-archive.md.
func (r Row) Section() (file, heading string, ok bool) {
	file, heading, ok = strings.Cut(r.Source, ": ")
	return file, heading, ok && (file == "EXPERIMENTS.md" || file == "EXPERIMENTS-archive.md")
}

// Check says what is wrong with r by itself: it wants a change, a seed, runs
// and a host; a side; a workload and a metric that d declares; a median
// within its quartiles; and a source that names an EXPERIMENTS file. Whether
// the heading exists, and the rules across rows, are the file's to check.
func (r Row) Check(d Declared) error {
	switch {
	case r.PR <= 0 || r.Seed < 0 || r.N < 1 || r.NProc < 1 || !strings.HasPrefix(r.Go, "go"):
		return fmt.Errorf("pr %d, seed %d, n %d, nproc %d, go %q: want a change, a seed, runs and a host", r.PR, r.Seed, r.N, r.NProc, r.Go)
	case r.Side != "parent" && r.Side != "change":
		return fmt.Errorf("side %q, want parent or change", r.Side)
	case !d.Workloads[r.Workload]:
		return fmt.Errorf("workload %q is not in BENCHMARK.json", r.Workload)
	case !d.Metrics[r.Metric]:
		return fmt.Errorf("metric %q is not in BENCHMARK.json", r.Metric)
	case !(r.Q1 <= r.Median && r.Median <= r.Q3):
		return fmt.Errorf("median %v outside its quartiles [%v, %v]", r.Median, r.Q1, r.Q3)
	}
	if _, _, ok := r.Section(); !ok {
		return fmt.Errorf("source %q, want \"EXPERIMENTS[-archive].md: <heading>\"", r.Source)
	}
	return nil
}
