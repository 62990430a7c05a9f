// Package explore is the schedule-space explorer: it turns the replay engine
// into a correctness tool by generating many *legal* interleavings of a
// generated program and deterministically replaying every one, instead of
// only ever replaying the single schedule the recorder happened to observe.
//
// The pipeline for one program seed:
//
//  1. progen.Generate builds a program whose per-thread critical events are
//     statically known (progen.Atoms) and whose final state has a sequential
//     model (progen.Expected).
//  2. The program is recorded once. The recording supplies the network log —
//     which for these programs is schedule-independent (per-thread network
//     event ids, 1-byte messages) — and an alignment check: the recorded
//     event counts must match the static model exactly, or the model has
//     drifted from the runtime and every synthesized schedule would be
//     garbage.
//  3. Alternative schedules are synthesized from scratch by the constraint
//     simulator (scheduler.go): the baseline no-directive schedule, then the
//     systematic depth-1 frontier (every single forced preemption observed
//     along the baseline — the bounded-preemption search that makes finding
//     a planted racy bug deterministic), then seeded random directive lists
//     of bounded depth until the budget is spent.
//  4. Each distinct schedule is composed into a schedule log
//     (tracelog.ComposeSchedule), validated by logcheck against the recorded
//     network and datagram logs, and replayed TWICE from a
//     core.Config.ReplayLogs set of that schedule log and those two logs.
//     Replay digests must agree (determinism) and the final state must equal
//     the model (correctness). Any deviation is a Finding, and Shrink
//     minimizes the directive list that provokes it.
package explore

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/logcheck"
	"repro/internal/netsim"
	"repro/internal/progen"
	"repro/internal/tracelog"
)

// progVMID is the DJVM identity generated programs run under.
const progVMID ids.DJVMID = 1

// Options configures one exploration run.
type Options struct {
	// Seed selects the generated program.
	Seed int64
	// Prog is what progen.Generate is asked to build (progen.Opts).
	Prog progen.Opts
	// OrderMode selects the critical-event ordering scheme to explore under.
	OrderMode ids.OrderMode
	// Budget is the number of distinct schedules to replay, including the
	// baseline. Default 20.
	Budget int
	// MaxDepth bounds the number of directives per random schedule (the
	// delay/preemption bound). Default 3.
	MaxDepth int
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 20
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	return o
}

// stallTimeout arms each replay's watchdog: a synthesized schedule should
// never stall (they are legal by construction), so a stall means an explorer
// bug and fails loudly rather than hanging.
const stallTimeout = 10 * time.Second

// Finding kinds.
const (
	// FindingState: a schedule's replayed final state differs from the
	// model — a schedule-dependent bug (e.g. the planted racy update).
	FindingState = "state-mismatch"
	// FindingReplay: two replays of the same schedule produced different
	// digests — the replay engine itself is nondeterministic.
	FindingReplay = "replay-mismatch"
	// FindingLogcheck: a synthesized schedule failed log validation — the
	// composer emitted a structurally invalid log.
	FindingLogcheck = "logcheck"
)

// Finding is one divergence discovered by exploration.
type Finding struct {
	Seed       int64         `json:"seed"`
	OrderMode  ids.OrderMode `json:"order_mode"`
	Directives []Directive   `json:"directives"`
	Kind       string        `json:"kind"`
	Detail     string        `json:"detail"`
}

func (f Finding) String() string {
	return fmt.Sprintf("seed %d (%v): %s after %d directive(s): %s",
		f.Seed, f.OrderMode, f.Kind, len(f.Directives), f.Detail)
}

// Result summarizes one exploration run.
type Result struct {
	Seed      int64         `json:"seed"`
	OrderMode ids.OrderMode `json:"order_mode"`
	// Schedules is the number of distinct schedules replayed (each twice).
	Schedules int `json:"schedules"`
	// Attempts is the number of directive lists simulated, including those
	// deduplicated away before replay.
	Attempts int `json:"attempts"`
	// Preemptions histograms the schedules by forced-preemption count.
	Preemptions map[int]int `json:"preemption_hist"`
	Findings    []Finding   `json:"findings,omitempty"`
}

// explorer is the per-seed engine: the generated program, its one recording,
// and the synthesized-schedule checker.
type explorer struct {
	opts     Options
	p        *progen.Program
	atoms    [][]progen.Atom
	expected []int64
	recorded *tracelog.Set
	seen     map[uint64]bool
}

// newExplorer generates the program for opts.Seed, records it once, and
// verifies the recording aligns with the static model.
func newExplorer(opts Options) (*explorer, error) {
	opts = opts.withDefaults()
	p := progen.Generate(opts.Seed, opts.Prog)
	e := &explorer{
		opts:     opts,
		p:        p,
		atoms:    p.Atoms(),
		expected: p.Expected(),
		seen:     make(map[uint64]bool),
	}
	if err := e.record(); err != nil {
		return nil, err
	}
	if err := e.align(); err != nil {
		return nil, err
	}
	return e, nil
}

// record runs the program once in record mode, keeping its log set.
func (e *explorer) record() error {
	net := netsim.NewNetwork(netsim.Config{Seed: e.opts.Seed})
	vm, err := core.NewVM(core.Config{
		ID:        progVMID,
		Mode:      ids.Record,
		World:     ids.ClosedWorld,
		OrderMode: e.opts.OrderMode,
	})
	if err != nil {
		return fmt.Errorf("explore: record vm: %w", err)
	}
	run := progen.NewRun(e.p, vm)
	env := djsock.NewEnv(vm, net, "prog")
	vm.Start(run.Main(env))
	vm.Wait()
	vm.Close()
	e.recorded = vm.Logs()
	return nil
}

// align cross-checks the recording against the static atom model: every
// order stream's counter — the global clock's and, sharded, each object's —
// must have advanced exactly as many times as the model predicts. A mismatch
// means synthesized schedules would not describe this program — an
// explorer/progen bug, not a program bug.
func (e *explorer) align() error {
	idx, err := tracelog.BuildScheduleIndex(e.recorded.Schedule)
	if err != nil {
		return fmt.Errorf("explore: recorded schedule unusable: %w", err)
	}
	if want := uint32(len(e.atoms)); idx.Meta.Threads != want {
		return fmt.Errorf("explore: recording created %d threads, model has %d", idx.Meta.Threads, want)
	}
	want := e.p.StreamEvents(e.opts.OrderMode)
	if last := idx.Streams[len(idx.Streams)-1].ID; int(last) >= len(want) {
		return fmt.Errorf("explore: recording has a %v the model does not", last)
	}
	for s, n := range want {
		if got := idx.Stream(tracelog.Stream(s)).End(); got != ids.GCount(n) {
			return fmt.Errorf("explore: recording's %v reached %d, model predicts %d — atom model drifted from runtime", tracelog.Stream(s), got, n)
		}
	}
	return nil
}

// compose turns a simulated schedule into a replayable schedule log.
func (e *explorer) compose(sch *schedule) *tracelog.Log {
	orders := project(e.p, sch, e.opts.OrderMode)
	meta := tracelog.VMMeta{
		VM:      progVMID,
		World:   ids.ClosedWorld,
		Threads: uint32(len(e.atoms)),
	}
	return tracelog.ComposeSchedule(meta, e.opts.OrderMode, 0, orders, nil)
}

// check composes, validates, and doubly replays one schedule, returning a
// Finding if it misbehaves and nil if it passes.
func (e *explorer) check(sch *schedule) (*Finding, error) {
	override := e.compose(sch)
	synth := tracelog.NewSet()
	synth.Schedule = override
	synth.Network = e.recorded.Network
	synth.Datagram = e.recorded.Datagram
	if rep := logcheck.CheckSet(synth); !rep.OK() {
		return e.finding(sch, FindingLogcheck, rep.Findings[0].String()), nil
	}
	d1, s1, err := e.replayOnce(override)
	if err != nil {
		return nil, err
	}
	d2, _, err := e.replayOnce(override)
	if err != nil {
		return nil, err
	}
	if d1 != d2 {
		return e.finding(sch, FindingReplay, fmt.Sprintf("digest %x vs %x across two replays", d1, d2)), nil
	}
	for i := range s1 {
		if s1[i] != e.expected[i] {
			return e.finding(sch, FindingState, fmt.Sprintf("final state %v, model %v", s1, e.expected)), nil
		}
	}
	return nil, nil
}

func (e *explorer) finding(sch *schedule, kind, detail string) *Finding {
	return &Finding{
		Seed:       e.opts.Seed,
		OrderMode:  e.opts.OrderMode,
		Directives: append([]Directive(nil), sch.applied...),
		Kind:       kind,
		Detail:     detail,
	}
}

// replayOnce replays the recording under the synthesized schedule and digests
// the execution: the critical-event trace (global mode only — the observer is
// meaningless under sharded order) plus the final variable state.
func (e *explorer) replayOnce(override *tracelog.Log) (uint64, []int64, error) {
	net := netsim.NewNetwork(netsim.Config{Seed: e.opts.Seed})
	h := newHash()
	cfg := core.Config{
		ID:           progVMID,
		Mode:         ids.Replay,
		World:        ids.ClosedWorld,
		OrderMode:    e.opts.OrderMode,
		ReplayLogs:   &tracelog.Set{Schedule: override, Network: e.recorded.Network, Datagram: e.recorded.Datagram},
		StallTimeout: stallTimeout,
	}
	if e.opts.OrderMode == ids.OrderGlobal {
		// Runs inside the GC-critical section: invocations are totally
		// ordered, so the unsynchronized accumulator is safe.
		cfg.EventObserver = func(th ids.ThreadNum, gc ids.GCount) {
			h.u64(uint64(th))
			h.u64(uint64(gc))
		}
	}
	vm, err := core.NewVM(cfg)
	if err != nil {
		return 0, nil, fmt.Errorf("explore: replay vm: %w", err)
	}
	run := progen.NewRun(e.p, vm)
	env := djsock.NewEnv(vm, net, "prog")
	vm.Start(run.Main(env))
	vm.Wait()
	vm.Close()
	finals := run.Finals()
	for _, v := range finals {
		h.u64(uint64(v))
	}
	return h.sum(), finals, nil
}

// Run explores one program seed: baseline schedule, systematic depth-1
// frontier, then random bounded-depth schedules until the budget is spent.
func Run(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	e, err := newExplorer(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Seed:        opts.Seed,
		OrderMode:   opts.OrderMode,
		Preemptions: make(map[int]int),
	}
	try := func(dirs []Directive) (*schedule, error) {
		if res.Schedules >= opts.Budget {
			return nil, nil
		}
		res.Attempts++
		sch, err := simulate(e.p, e.atoms, dirs)
		if err != nil {
			return nil, err
		}
		if e.seen[sch.hash] {
			return sch, nil
		}
		e.seen[sch.hash] = true
		f, err := e.check(sch)
		if err != nil {
			return nil, err
		}
		res.Schedules++
		res.Preemptions[sch.preemptions]++
		if f != nil {
			res.Findings = append(res.Findings, *f)
		}
		return sch, nil
	}

	// Baseline: the default non-preemptive policy, no directives. Its alts
	// are the systematic frontier.
	baseline, err := try(nil)
	if err != nil {
		return nil, err
	}
	for _, alt := range baseline.alts {
		if res.Schedules >= opts.Budget {
			break
		}
		if _, err := try([]Directive{alt}); err != nil {
			return nil, err
		}
	}
	// Random bounded-depth directives fill the remaining budget, drawn from a
	// source seeded with Seed+1, so a campaign is reproducible end to end.
	// Attempts are capped so a tiny schedule space (fewer distinct schedules
	// than the budget) terminates.
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	total := 0
	for _, th := range e.atoms {
		total += len(th)
	}
	for guard := 0; res.Schedules < opts.Budget && guard < opts.Budget*20; guard++ {
		depth := 1 + rng.Intn(opts.MaxDepth)
		dirs := make([]Directive, 0, depth)
		for i := 0; i < depth; i++ {
			dirs = append(dirs, Directive{
				Step:   rng.Intn(total),
				Thread: ids.ThreadNum(rng.Intn(len(e.atoms))),
			})
		}
		if _, err := try(dirs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// CampaignResult aggregates exploration across a range of program seeds.
type CampaignResult struct {
	Seeds       int           `json:"seeds"`
	OrderMode   ids.OrderMode `json:"order_mode"`
	Schedules   int           `json:"schedules"`
	Attempts    int           `json:"attempts"`
	Preemptions map[int]int   `json:"preemption_hist"`
	Findings    []Finding     `json:"findings,omitempty"`
}

// Campaign explores numSeeds consecutive program seeds starting at
// opts.Seed, each under opts' budget, aggregating coverage.
func Campaign(opts Options, numSeeds int) (*CampaignResult, error) {
	opts = opts.withDefaults()
	out := &CampaignResult{
		Seeds:       numSeeds,
		OrderMode:   opts.OrderMode,
		Preemptions: make(map[int]int),
	}
	for i := 0; i < numSeeds; i++ {
		o := opts
		o.Seed = opts.Seed + int64(i)
		r, err := Run(o)
		if err != nil {
			return nil, fmt.Errorf("explore: seed %d: %w", o.Seed, err)
		}
		out.Schedules += r.Schedules
		out.Attempts += r.Attempts
		for k, v := range r.Preemptions {
			out.Preemptions[k] += v
		}
		out.Findings = append(out.Findings, r.Findings...)
	}
	return out, nil
}
