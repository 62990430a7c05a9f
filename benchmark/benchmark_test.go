package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testOptions is a run small enough for the unit-test tier: 1/50 of every
// workload's size, two timed repetitions.
func testOptions(t *testing.T, workload string) options {
	t.Helper()
	if testing.Short() {
		t.Skip("runs whole workloads")
	}
	return options{workload: workload, seed: 7, reps: 2, scale: 0.02, dir: t.TempDir(), watchdog: defaultWatchdog}
}

// Every workload, traced, finishes, passes its checks, and emits its row of
// the end-to-end matrix and every per-layer name; the share.* rows add to 1.
func TestEveryWorkloadEmitsItsRow(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			opt := testOptions(t, wl.name)
			opt.trace = true
			res, err := runWorkload(opt, io.Discard, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			if res.Reps != opt.reps {
				t.Errorf("%d timed repetitions in the medians, want %d", res.Reps, opt.reps)
			}
			for _, m := range endToEnd {
				if !m.reportedOn(wl.name) {
					continue
				}
				s, ok := res.Metrics[m.name]
				if !ok || s.N == 0 {
					t.Errorf("end-to-end metric %s missing", m.name)
				} else if s.Median <= 0 && m.name != "fail_share" {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, s.Median)
				}
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			low := summarize(res.Samples["record_wall_ms"]).Q1 / summarize(res.Samples["pass_wall_ms"]).Q1
			if got := res.Metrics["record_slowdown"].Median; got != low {
				t.Errorf("record_slowdown = %v, want lower-quartile record over lower-quartile passthrough = %v", got, low)
			}
			var shares float64
			for _, l := range layerNames {
				shares += res.Metrics["share."+l].Median
			}
			if math.Abs(shares-1) > 0.02 {
				t.Errorf("share.* rows add to %.4f, want 1 +- 0.02", shares)
			}
			if _, err := os.Stat(filepath.Join(opt.dir, "trace-"+wl.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			checkContractLine(t, res, contractPerLayer())
			res.Traced = false
			checkContractLine(t, res, contractEndToEnd())
		})
	}
}

// checkContractLine holds the last line of a run to BENCHMARK.json's contract:
// exactly four keys, and exactly the listed metrics, each with its unit.
func checkContractLine(t *testing.T, res *result, want []metricDef) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(res.contractLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("contract line lacks correct, attempted or failed: %s", res.contractLine())
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("contract line has %d metrics, want %d", len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.name]
		if !ok || got.Value == nil || got.Unit != m.unit {
			t.Errorf("contract line: metric %s = %+v, want a value in %s", m.name, got, m.unit)
		}
	}
}

// With one seed, the counters a workload's program fixes are identical across
// two runs. What scheduling decides is left out on purpose: socket events on
// the kv-* workloads (a get that races ahead of the first put of its key gets
// an empty reply and skips one read), monitor and datagram events on
// kv-cluster (which updates survive the lossy multicast), and WAL record
// counts (schedule intervals are cut by context switches).
func TestExactCountersRepeat(t *testing.T) {
	all := []string{"core.events.shared", "core.events.monitor", "core.events.socket", "core.events.datagram", "core.events.thread", "core.events.checkpoint"}
	exact := map[string][]string{
		wlSharedMem:  all,
		wlNetOpen:    all,
		wlKVCluster:  {"core.events.shared", "core.events.thread", "core.events.checkpoint"},
		wlKVDurable:  {"core.events.shared", "core.events.monitor", "core.events.datagram", "core.events.thread", "core.events.checkpoint"},
		wlParGlobal:  all,
		wlParSharded: all,
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				opt := testOptions(t, wl.name)
				opt.reps = 1
				res, err := runWorkload(opt, io.Discard, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("failed operations: %v", res.Failures)
				}
				runs[i] = res
			}
			if runs[0].Attempted != runs[1].Attempted {
				t.Errorf("attempted operations: %d then %d", runs[0].Attempted, runs[1].Attempted)
			}
			for _, name := range exact[wl.name] {
				a, b := runs[0].Metrics[name], runs[1].Metrics[name]
				if a.N == 0 || a.Median != b.Median {
					t.Errorf("%s: %v then %v", name, a.Median, b.Median)
				}
			}
		})
	}
}

// A later change must not be able to move a number by editing the program
// being timed: the benchmark's drivers import the layers only.
func TestBenchmarkImportsOnlyTheLayers(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "repro/benchmark/...").Output()
	if err != nil {
		t.Skipf("go list: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		for _, banned := range []string{"repro/internal/bench", "repro/internal/kvapp", "repro/cmd/"} {
			if banned = strings.TrimSuffix(banned, "/"); pkg == banned || strings.HasPrefix(pkg, banned+"/") {
				t.Errorf("benchmark depends on %s", pkg)
			}
		}
	}
}

// A replay whose digests differ and a replay that never finishes are each one
// failed operation: fail_share rises, the other repetitions still count, and
// the process exits 0.
func TestFailuresAreCountedNotFatal(t *testing.T) {
	for _, inject := range []string{"digest", "hang"} {
		t.Run(inject, func(t *testing.T) {
			opt := testOptions(t, wlSharedMem)
			opt.reps = 3
			opt.inject = inject
			opt.watchdog = 2 * time.Second
			opt.result = filepath.Join(opt.dir, "result.json")
			var stdout, stderr bytes.Buffer
			if code := execute(opt, &stdout, &stderr, time.Now()); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			data, err := os.ReadFile(opt.result)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 || res.Attempted != 3 {
				t.Errorf("attempted %d, failed %d, want 3 and 1: %v", res.Attempted, res.Failed, res.Failures)
			}
			if got := res.Metrics["fail_share"].Median; math.Abs(got-1.0/3) > 1e-9 {
				t.Errorf("fail_share = %v, want 1/3", got)
			}
			if res.Reps != 2 {
				t.Errorf("%d repetitions in the medians, want the 2 that passed", res.Reps)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if last := lines[len(lines)-1]; !strings.Contains(last, `"correct":false`) {
				t.Errorf("last line does not report the failure: %s", last)
			}
		})
	}
}

// BENCHMARK.json is the tables of metrics.go in the contract's shape.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(contractWorkloads) {
		t.Fatalf("%d workloads, want %d", len(file.Workloads), len(contractWorkloads))
	}
	if len(file.Command) < 3 || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("command %v, run_seconds %d", file.Command, file.RunSeconds)
	}
	for i, name := range contractWorkloads {
		w, _ := findWorkload(name)
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d = %+v, want %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != contractBound {
				t.Errorf("%s %s: bound %v", kind, m.name, g.Bound)
			}
			if seen[m.name] || len(m.name) > 64 || len(m.unit) > 16 {
				t.Errorf("%s %s: duplicate or too long", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	same("end_to_end", file.EndToEnd, contractEndToEnd(), true)
	same("per_layer", file.PerLayer, contractPerLayer(), false)
	if len(perLayer) != 96 {
		t.Errorf("%d per-layer rows, the README says 96", len(perLayer))
	}
}

// The A/A verdict is symmetric, gives up on a cell whose own repetitions
// spread wider than its bound, and never fails a cell the table has moved.
func TestCheckVerdict(t *testing.T) {
	slowdown := endToEnd[4] // record_slowdown, bound 0.10
	if slowdown.name != "record_slowdown" {
		t.Fatal("endToEnd order changed")
	}
	tight := func(v float64) summary { return summary{Median: v, Q1: 0.99 * v, Q3: 1.01 * v, N: 9} }
	for _, c := range []struct {
		workload string
		a, b     summary
		want     string
	}{
		{wlSharedMem, tight(5.8), tight(6.0), "pass"},
		{wlSharedMem, tight(5.8), tight(6.5), verdictFail},
		{wlSharedMem, tight(6.5), tight(5.8), verdictFail},
		{wlSharedMem, tight(5.8), summary{Median: 6.5, Q1: 5.7, Q3: 7.4, N: 9}, "unresolved (repetitions spread 26%)"},
		{wlKVDurable, tight(12), tight(16), "moved-to-per-layer"},
	} {
		if got := verdict(slowdown, c.workload, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %q, want %q", c.workload, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("summarize = %+v", s)
	}
	lat := []float64{5, 1, 4, 2, 3}
	if p := percentile(lat, 99); p != 5 {
		t.Errorf("p99 = %v", p)
	}
	if !sort.Float64sAreSorted(lat) {
		t.Error("percentile documents that it sorts in place")
	}
}

// A span's self time is its duration less what its children cover, hot spans
// stand for hotSample calls each, and the shares of a recording thread add up
// to its thread time.
func TestTraceSummaryAttributesSelfTime(t *testing.T) {
	tr := &tracer{epoch: time.Now()}
	tt := &threadTrace{tr: tr, info: threadInfo{phase: phaseRec, mode: phaseRec}}
	tt.spans = []span{
		{name: spThread, weight: 1, parent: -1, start: 0, end: 1000},
		{name: spServe, weight: 1, parent: 0, start: 100, end: 700},
		{name: spHandler, weight: 1, parent: 1, start: 200, end: 400},
		{name: spShared, weight: hotSample, parent: 0, start: 800, end: 801},
	}
	tt.calls[spShared] = 100
	tr.threads = []*threadTrace{tt}
	sum := tr.summarize()
	want := [numLayers]float64{layerApp: 1000 - 600 - 100 + 200, layerDjrpc: 400, layerCore: 100}
	if sum.layerNs != want || sum.threadNs != 1000 {
		t.Errorf("layerNs = %v of %v, want %v of 1000", sum.layerNs, sum.threadNs, want)
	}
	if st := sum.stats[spanKey{spShared, phaseRec}]; st.count != 100 || st.medianNs() != 1 {
		t.Errorf("hot span stat = %+v", st)
	}
}
