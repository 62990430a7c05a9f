package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/benchrow"
)

// TestBenchTrajectory checks BENCH_benchmark.json against its schema and the
// benchmark's declaration: every field is known and every row keeps
// benchrow's rules (set fields, names BENCHMARK.json declares, quartiles
// bracketing the median), no row is given twice, each cell has both sides,
// and each row's source is a section heading of the file it names.
func TestBenchTrajectory(t *testing.T) {
	declared, err := benchrow.ReadDeclared("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var data struct {
		Description string         `json:"description"`
		Rows        []benchrow.Row `json:"rows"`
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
		if err := r.Check(declared); err != nil {
			t.Errorf("row %d: %v", i, err)
		}
		c := cell{r.PR, r.Workload, r.Seed, r.Metric}
		if sides[c] == nil {
			sides[c] = map[string]bool{}
		}
		if sides[c][r.Side] {
			t.Errorf("row %d: %+v %s given twice", i, c, r.Side)
		}
		sides[c][r.Side] = true

		file, heading, ok := r.Section()
		if !ok {
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
