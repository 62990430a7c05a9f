package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchrow"
)

// writeResult writes a benchmark -result file holding only what rows are
// built from: the workload, the seed and each metric's median.
func writeResult(t *testing.T, dir, name, workload string, seed int, medians map[string]float64) string {
	t.Helper()
	metrics := map[string]map[string]float64{}
	for m, v := range medians {
		metrics[m] = map[string]float64{"median": v, "q1": v, "q3": v, "n": 9}
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "traced": false, "metrics": metrics})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRowsFromTwoResultFiles feeds two runs of one side and checks the rows
// by the rules every row of BENCH_benchmark.json keeps (benchrow.Row.Check)
// and their figures: the median and quartiles over the runs.
func TestRowsFromTwoResultFiles(t *testing.T) {
	dir := t.TempDir()
	medians := func(slowdown float64) map[string]float64 {
		m := map[string]float64{}
		for i, name := range rowMetrics {
			m[name] = float64(i)
		}
		m["record_slowdown"] = slowdown
		return m
	}
	a := writeResult(t, dir, "a.json", "shared-mem", 947, medians(3.0))
	b := writeResult(t, dir, "b.json", "shared-mem", 947, medians(2.0))
	var out, errs bytes.Buffer
	args := []string{"-pr", "48", "-side", "change", "-source", "EXPERIMENTS.md: Some section", a, b}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}

	declared, err := benchrow.ReadDeclared("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(rowMetrics) {
		t.Fatalf("%d rows, want %d:\n%s", len(lines), len(rowMetrics), out.String())
	}
	var want []benchrow.Row
	for i, m := range rowMetrics {
		want = append(want, benchrow.Row{Metric: m, Median: float64(i), Q1: float64(i), Q3: float64(i)})
		if m == "record_slowdown" {
			want[i].Median, want[i].Q1, want[i].Q3 = 2.5, 2.0, 3.0
		}
	}
	for i, line := range lines {
		var r benchrow.Row
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("row %d: %v: %s", i, err, line)
		}
		if err := r.Check(declared); err != nil {
			t.Errorf("row %d: %v", i, err)
		}
		w := want[i]
		if r.PR != 48 || r.Side != "change" || r.Workload != "shared-mem" || r.Seed != 947 || r.N != 2 ||
			r.Metric != w.Metric || r.Median != w.Median || r.Q1 != w.Q1 || r.Q3 != w.Q3 {
			t.Errorf("row %d: %+v, want %s median %v [%v, %v] over 2 runs of shared-mem seed 947", i, r, w.Metric, w.Median, w.Q1, w.Q3)
		}
	}

	// A metric a run lacks is an error, not a row.
	c := writeResult(t, dir, "c.json", "net-open", 1, map[string]float64{"setup_s": 1})
	if code := run([]string{"-pr", "48", "-side", "change", "-source", "EXPERIMENTS.md: S", c}, &out, &errs); code != 1 {
		t.Errorf("a missing metric exits %d, want 1", code)
	}
	// So is a traced run, and a group whose runs differ in length: a copy of
	// b that says so.
	for field, v := range map[string]any{"traced": true, "scale": 2} {
		var res map[string]any
		data, _ := os.ReadFile(b)
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		res[field] = v
		data, _ = json.Marshal(res)
		bad := filepath.Join(dir, field+".json")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-pr", "48", "-side", "change", "-source", "EXPERIMENTS.md: S", a, bad}, &out, &errs); code != 1 {
			t.Errorf("a run with %s %v exits %d, want 1", field, v, code)
		}
	}
	if code := run([]string{"-pr", "48", "-side", "both", "-source", "EXPERIMENTS.md: S", a}, &out, &errs); code != 2 {
		t.Errorf("side both exits %d, want 2", code)
	}
}

// TestAppendKeepsTheFile appends to a copy of the repository's trajectory:
// with no rows the file is unchanged byte for byte, and with rows they follow
// every earlier one, one a line.
func TestAppendKeepsTheFile(t *testing.T) {
	orig, err := os.ReadFile("../../BENCH_benchmark.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_benchmark.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendRows(path, nil); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, orig) {
		t.Fatal("appending no rows rewrote the file")
	}
	r := benchrow.Row{PR: 48, Side: "parent", Workload: "net-open", Seed: 1, Metric: "setup_s", Median: 0.5, Q1: 0.5, Q3: 0.5, N: 1, NProc: 2, Go: "go1", Source: "EXPERIMENTS.md: S"}
	if err := appendRows(path, []benchrow.Row{r}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	want := string(orig[:len(orig)-len("\n ]\n}\n")]) + ",\n  " + format(r) + "\n ]\n}\n"
	if string(got) != want {
		t.Errorf("appended file ends\n%s\nwant\n%s", got[max(0, len(got)-400):], want[max(0, len(want)-400):])
	}
}
