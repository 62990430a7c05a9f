package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchRow is one row of BENCH_benchmark.json: what the benchmark module
// measured for one side (the parent commit or the change) of one change, on
// one workload and seed — the median of the side's runs, their quartiles and
// count, and the host they ran on. Source names the EXPERIMENTS section whose
// table the row is, as "<file>: <heading>".
type benchRow struct {
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

// TestBenchTrajectory checks BENCH_benchmark.json against its schema and the
// benchmark's declaration: every field is known and set, every workload and
// metric is one BENCHMARK.json names, the quartiles bracket the median, no
// row is given twice, each cell has both sides, and each row's source is a
// section heading of the file it names.
func TestBenchTrajectory(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(mustRead(t, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}

	var data struct {
		Description string     `json:"description"`
		Rows        []benchRow `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(mustRead(t, "BENCH_benchmark.json")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&data); err != nil {
		t.Fatal(err)
	}
	if data.Description == "" || len(data.Rows) == 0 {
		t.Fatal("BENCH_benchmark.json has no description or no rows")
	}
	type cell struct {
		pr       int
		workload string
		seed     int
		metric   string
	}
	sides := map[cell]map[string]bool{}
	headings := map[string]string{}
	for i, r := range data.Rows {
		switch {
		case r.PR <= 0 || r.Seed < 0 || r.N < 1 || r.NProc < 1 || !strings.HasPrefix(r.Go, "go"):
			t.Errorf("row %d: pr %d, seed %d, n %d, nproc %d, go %q: want a change, a seed, runs and a host", i, r.PR, r.Seed, r.N, r.NProc, r.Go)
		case r.Side != "parent" && r.Side != "change":
			t.Errorf("row %d: side %q, want parent or change", i, r.Side)
		case !workloads[r.Workload]:
			t.Errorf("row %d: workload %q is not in BENCHMARK.json", i, r.Workload)
		case !metrics[r.Metric]:
			t.Errorf("row %d: metric %q is not in BENCHMARK.json", i, r.Metric)
		case !(r.Q1 <= r.Median && r.Median <= r.Q3):
			t.Errorf("row %d: median %v outside its quartiles [%v, %v]", i, r.Median, r.Q1, r.Q3)
		}
		c := cell{r.PR, r.Workload, r.Seed, r.Metric}
		if sides[c] == nil {
			sides[c] = map[string]bool{}
		}
		if sides[c][r.Side] {
			t.Errorf("row %d: %+v %s given twice", i, c, r.Side)
		}
		sides[c][r.Side] = true

		file, heading, ok := strings.Cut(r.Source, ": ")
		if !ok || (file != "EXPERIMENTS.md" && file != "EXPERIMENTS-archive.md") {
			t.Errorf("row %d: source %q, want \"EXPERIMENTS[-archive].md: <heading>\"", i, r.Source)
			continue
		}
		if _, read := headings[file]; !read {
			headings[file] = string(mustRead(t, file))
		}
		if !strings.Contains(headings[file], "\n## "+heading+"\n") {
			t.Errorf("row %d: %s has no section %q", i, file, heading)
		}
	}
	for c, s := range sides {
		if len(s) != 2 {
			t.Errorf("%+v has one side only", c)
		}
	}
}

func mustRead(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
