package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/logcheck"
)

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed repetitions stop after this long; 0 = use reps
	reps     int     // timed repetitions; 0 = 9, or unlimited when seconds is set
	scale    float64
	dir      string
	trace    bool
	check    bool
	result   string // file the full result is written to, for a parent process

	// watchdog bounds each phase of each repetition and each ladder probe.
	watchdog time.Duration
	// inject spoils repetition 1 on purpose, for the tests: "digest" flips a
	// bit of its replay's outcome, "hang" blocks its replay phase.
	inject string
}

const (
	defaultReps     = 9
	defaultWatchdog = 20 * time.Second
	tracedReps      = 2
	setupPasses     = 5
	// walSyncEvery is the WAL flush policy of kv-durable and of the
	// tracelog.wal.append_sync64_us probe: fsync after this many records. It is
	// tracelog's default, fixed here so both sides of a comparison state it.
	walSyncEvery = 64
)

// workloadDef is one row of the workload table.
type workloadDef struct {
	name string
	why  string
	// procs is GOMAXPROCS for the workload's process.
	procs int
	// build sizes the program and generates its inputs from the seed.
	build func(scale float64, seed int64) *program
}

// parProcs is the thread count and GOMAXPROCS of the par-* workloads.
func parProcs() int {
	return min(runtime.NumCPU(), 4)
}

var workloads = []workloadDef{
	{wlSharedMem, "closed world, 16 threads racing on shared integers: core's global critical section and interval flush do the work (paper Table 1)", 1, buildSharedMem},
	{wlNetOpen, "open-world server, 32000 connections of 1 KiB each way: djsock's open protocol and tracelog content logging dominate, core does little", 1, buildNetOpen},
	{wlKVCluster, "four closed-world DJVMs, djrpc over djsock ids, monitors, lossy multicast via djgram and rudp: the whole stack as an application uses it", 1, buildKVCluster},
	{wlKVDurable, "open-world primary with WAL, a checkpoint and truncation per round, then 12 torn-WAL crash recoveries: tracelog write side against its read side", 1, buildKVDurable},
	{wlParGlobal, "threads on their own padded objects under OrderGlobal at real parallelism: the default order mode where it has never been measured", parProcs(), buildParGlobal},
	{wlParSharded, "the same program under OrderSharded, the workload that mode exists for: with par-global, the evidence to unify or remove it", parProcs(), buildParSharded},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scaled sizes a count by -scale, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale+0.5), floor)
}

// runner runs one workload in this process.
type runner struct {
	opt  options
	wl   workloadDef
	prog *program
	dir  string
	out  io.Writer

	samples   map[string][]float64 // per timed repetition
	latency   []float64            // op latencies (us), pooled
	repP50    []float64            // per-repetition percentiles, for quartiles
	repP99    []float64
	recoverMs []float64 // pooled over crash points
	attempted int
	failed    int
	failures  []string
	extra     map[string]float64 // ladder probes, span means, shares
}

// result is everything a run measured, written for a parent process and
// printed for a person.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Scale      float64            `json:"scale"`
	Traced     bool               `json:"traced"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Reps       int                `json:"timed_repetitions"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]summary `json:"metrics"`
	// Samples holds the per-repetition values behind each median.
	Samples map[string][]float64 `json:"samples"`
}

// runWorkload runs one workload and returns what it measured. Errors are for
// what prevents measuring at all (no such workload, no output directory); a
// failed repetition is a counted failure, not an error.
func runWorkload(opt options, out io.Writer, began time.Time) (*result, error) {
	wl, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("no workload %q", opt.workload)
	}
	prev := runtime.GOMAXPROCS(wl.procs)
	defer runtime.GOMAXPROCS(prev)
	r := &runner{
		opt:     opt,
		wl:      wl,
		dir:     filepath.Join(opt.dir, wl.name),
		out:     out,
		samples: map[string][]float64{},
		extra:   map[string]float64{},
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# %s  seed=%d scale=%g GOMAXPROCS=%d trace=%v\n", wl.name, opt.seed, opt.scale, wl.procs, opt.trace)
	fmt.Fprintf(out, "# %s\n", wl.why)
	fmt.Fprintf(out, "# output directory %s (filesystem %s); WAL flush policy SyncEvery=%d\n", r.dir, fsType(r.dir), walSyncEvery)

	// Set-up: inputs, directories, a warm-up repetition, and logcheck over the
	// logs it recorded. It is done setupPasses times and setup_s is the time
	// from process start to the first pass plus the median pass, so that one
	// slow pass does not decide the number.
	preamble := time.Since(began).Seconds()
	var passes []float64
	for i := 0; i < setupPasses; i++ {
		start := time.Now()
		r.prog = wl.build(opt.scale, opt.seed)
		warm := r.repetition(-1-i, nil)
		if warm.failure != "" {
			r.countRep(warm)
		}
		for name, set := range warm.logs {
			if rep := logcheck.CheckSet(set); !rep.OK() {
				r.attempted++
				r.failed++
				r.failures = append(r.failures, fmt.Sprintf("warm-up: logcheck %s: %v", name, rep.Findings[0]))
			}
		}
		passes = append(passes, time.Since(start).Seconds())
	}
	setup := preamble + median(passes)
	fmt.Fprintf(out, "# set-up: %.3f s to the first pass, passes of %.3f s\n", preamble, passes)

	timedStart := time.Now()
	budget := time.Duration(opt.seconds * float64(time.Second))
	untracedBudget := budget
	if opt.trace {
		untracedBudget = budget / 2
	}
	maxReps := opt.reps
	if maxReps == 0 && opt.seconds == 0 {
		maxReps = defaultReps
	}
	minReps := 3
	if opt.trace {
		minReps = 2
	}
	for i := 0; ; i++ {
		if maxReps > 0 && i >= maxReps {
			break
		}
		if budget > 0 && i >= minReps && time.Since(timedStart) >= untracedBudget {
			break
		}
		r.countRep(r.repetition(i, nil))
	}
	r.samples["setup_s"] = []float64{setup}
	// Read before the traced repetitions: their spans are held in memory.
	r.samples["peak_rss_mb"] = []float64{peakRSSMB()}
	if opt.trace {
		r.traced()
	}
	return r.result(), nil
}

// countRep folds one timed repetition into the run. A failed repetition is
// one failed operation; its timings stay out of the medians.
func (r *runner) countRep(rep *repOut) {
	r.attempted += 1 + rep.ops + rep.recoveries
	r.failed += rep.opFails + rep.recFails
	if rep.failure != "" {
		r.failed++
		r.failures = append(r.failures, rep.failure)
		return
	}
	for name, v := range rep.values {
		r.samples[name] = append(r.samples[name], v)
	}
	if len(rep.latency) > 0 {
		r.latency = append(r.latency, rep.latency...)
		own := append([]float64(nil), rep.latency...)
		r.repP50 = append(r.repP50, percentile(own, 50))
		r.repP99 = append(r.repP99, percentile(own, 99))
	}
	r.recoverMs = append(r.recoverMs, rep.recoverMs...)
}

// traced runs the traced repetitions and the ladder, and reduces the spans to
// the per-layer numbers.
func (r *runner) traced() {
	tr := newTracer()
	var tracedWall []float64
	for i := 0; i < tracedReps; i++ {
		rep := r.repetition(len(r.samples["record_wall_ms"])+i, tr)
		if rep.failure != "" {
			r.attempted++
			r.failed++
			r.failures = append(r.failures, "traced: "+rep.failure)
			continue
		}
		tracedWall = append(tracedWall, rep.values["record_wall_ms"])
	}
	r.extra["trace.overhead"] = ratio(median(tracedWall), median(r.samples["record_wall_ms"]))

	sum := tr.summarize()
	spanMetric := func(metric string, sp spanName, mode phase, unit time.Duration) {
		if st := sum.stats[spanKey{sp, mode}]; st.count > 0 {
			r.extra[metric] = st.medianNs() / float64(unit)
		}
	}
	for _, m := range []struct {
		prefix string
		sp     spanName
		unit   time.Duration
		suffix string
	}{
		{"core.shared", spShared, time.Nanosecond, "ns"},
		{"core.monitor", spMonitor, time.Nanosecond, "ns"},
		{"djsock.connect", spConnect, time.Microsecond, "us"},
		{"djsock.accept", spAccept, time.Microsecond, "us"},
		{"djsock.write", spWrite, time.Microsecond, "us"},
		{"djsock.read", spRead, time.Microsecond, "us"},
		{"djrpc.call", spCall, time.Microsecond, "us"},
		{"djgram.send", spSend, time.Microsecond, "us"},
		{"djgram.receive", spReceive, time.Microsecond, "us"},
	} {
		for mode := phasePass; mode <= phaseRep; mode++ {
			spanMetric(fmt.Sprintf("%s.%s_%s", m.prefix, phaseNames[mode], m.suffix), m.sp, mode, m.unit)
		}
	}
	spanMetric("checkpoint.take_us", spTake, phaseRec, time.Microsecond)
	spanMetric("tracelog.wal.sync_ms", spWALSync, phaseRec, time.Millisecond)
	spanMetric("tracelog.truncate_ms", spTruncate, phaseRec, time.Millisecond)
	for l := layer(0); l < numLayers; l++ {
		r.extra["share."+layerNames[l]] = ratio(sum.layerNs[l], sum.threadNs)
	}

	path := filepath.Join(r.opt.dir, "trace-"+r.wl.name+".json")
	if err := tr.writeFile(path, r.wl.name); err != nil {
		r.failures = append(r.failures, "trace file: "+err.Error())
	} else {
		fmt.Fprintf(r.out, "# spans written to %s\n", path)
	}
	r.ladder()
}

// result reduces the run's samples to summaries.
func (r *runner) result() *result {
	res := &result{
		Workload:   r.wl.name,
		Seed:       r.opt.seed,
		Scale:      r.opt.scale,
		Traced:     r.opt.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       len(r.samples["record_events_per_s"]),
		Attempted:  r.attempted,
		Failed:     r.failed,
		Failures:   r.failures,
		Metrics:    map[string]summary{},
		Samples:    r.samples,
	}
	for name, s := range r.samples {
		res.Metrics[name] = summarize(s)
	}
	// The slowdowns are the lower quartile of the run's record (replay) phases
	// over the lower quartile of its passthrough phases, with the quartiles of
	// the per-repetition ratios beside them. A shared host mostly adds time to
	// a phase, so the low end of a dozen repetitions is the part least
	// disturbed; the very fastest phase is not used because at real parallelism
	// a stolen vCPU makes a contended phase faster, not slower. README.md has
	// the ten-seed spreads this was chosen on.
	for name, wall := range map[string]string{"record_slowdown": "record_wall_ms", "replay_slowdown": "replay_wall_ms"} {
		if s, ok := res.Metrics[name]; ok {
			s.Median = ratio(res.Metrics[wall].Q1, res.Metrics["pass_wall_ms"].Q1)
			res.Metrics[name] = s
		}
	}
	if len(r.latency) > 0 {
		p50, p99 := summarize(r.repP50), summarize(r.repP99)
		p50.Median, p50.N = percentile(r.latency, 50), len(r.latency)
		p99.Median, p99.N = percentile(r.latency, 99), len(r.latency)
		res.Metrics["op_latency_p50_us"] = p50
		res.Metrics["op_latency_p99_us"] = p99
	}
	if len(r.recoverMs) > 0 {
		res.Metrics["recover_ms"] = summarize(r.recoverMs)
	}
	for name, v := range r.extra {
		res.Metrics[name] = summary{Median: v, Q1: v, Q3: v, N: 1}
	}
	if r.opt.trace {
		// A traced run prints every per-layer name; 0 with n=0 is a layer the
		// workload's program never calls.
		for _, m := range contractPerLayer() {
			if _, ok := res.Metrics[m.name]; !ok {
				res.Metrics[m.name] = summary{}
			}
		}
	}
	share := ratio(float64(r.failed), float64(r.attempted))
	res.Metrics["fail_share"] = summary{Median: share, Q1: share, Q3: share, N: r.attempted}
	return res
}

// print writes the run for a person: the workload's row of the end-to-end
// matrix, then every per-layer number the run produced.
func (res *result) print(out io.Writer) {
	line := func(m metricDef) {
		s, ok := res.Metrics[m.name]
		if !ok || s.N == 0 {
			return
		}
		fmt.Fprintf(out, "%-36s %14s %-9s q1=%s q3=%s n=%d\n", m.name, fmtValue(s.Median), m.unit, fmtValue(s.Q1), fmtValue(s.Q3), s.N)
	}
	fmt.Fprintf(out, "## end-to-end (%s, %d timed repetitions)\n", res.Workload, res.Reps)
	for _, m := range endToEnd {
		if m.reportedOn(res.Workload) {
			line(m)
		}
	}
	fmt.Fprintf(out, "%-36s attempted=%d failed=%d\n", "operations", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(out, "  failure: %s\n", f)
	}
	fmt.Fprintf(out, "## per-layer\n")
	for _, m := range endToEnd {
		if !m.reportedOn(res.Workload) {
			line(m)
		}
	}
	for _, m := range perLayer {
		line(m)
	}
}

func fmtValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return strconv.FormatFloat(v, 'e', 4, 64)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// contractLine is the last line of a run's standard output: the one the
// driver of BENCHMARK.json reads.
func (res *result) contractLine() string {
	defs := contractEndToEnd()
	if res.Traced {
		defs = contractPerLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		metrics[m.name] = value{res.Metrics[m.name].Median, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem a directory is on, so a reader of the fsync
// numbers knows they are this sandbox's disk and not a device figure.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("type 0x%x", st.Type)
}
