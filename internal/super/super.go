// Package super closes the paper's fault-tolerance loop (§8): it watches the
// recording DJVMs of a coordinated-checkpoint group for fail-stop, repairs
// each crashed VM's write-ahead log, solves the group's latest complete
// recovery line, and prepares a checkpoint-anchored restart per victim —
// automatically, where the ingredients (durable WAL, torn-write recovery,
// checkpoint resume, recline.Solve) each had to be wired by hand per test. A
// lone VM is a group of one: its barrier completes at once and its own epochs
// are the line.
//
// Detection is progress-based, not liveness-based: a recording VM has no
// heartbeat protocol, but its critical-event total moves as long as any thread
// executes critical events. The supervisor polls every member's total
// (obs.Metrics.TotalEvents) and declares fail-stop of any subset whose totals
// freeze outside the coordinator's barrier for a configurable window — which
// catches both a killed process (total frozen) and the chaos engine's in-situ
// crash (a thread blocked forever inside the GC-critical section freezes every
// other thread too, so the total freezes the same way). A recording VM
// publishes its counter per schedule interval, not per event, and before each
// WAL durability note, whose fsync may hold its critical section; the poll
// itself brings the total up to date whenever no event is in flight, and it
// never waits for the critical section — a member frozen inside it reads as frozen
// (at its last published value; exactly, under an EventObserver such as the
// chaos engine's) and cannot freeze the supervisor with it.
//
// Recovery then runs tracelog.RecoverFile on each victim's WAL, solves the
// recovery line over the whole set, anchors each victim on its line
// checkpoint (falling back to its latest salvaged checkpoint, then to
// replay-from-zero when the log was never truncated and holds none), and
// hands the repaired set to the application's restart callback, which
// rebuilds the VM with checkpoint.ResumeConfig + StopAtLogEnd and
// fast-forwards to the crash point — while the surviving members, released
// from the barrier by the victim's removal, keep running and keep stamping
// epochs with the reduced membership. Later crashes open further episodes
// against the updated set. Outcomes surface through obs: recoveries,
// restarts, fallbacks, line fallbacks, and a mean-time-to-recover histogram.
package super

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recline"
	"repro/internal/tracelog"
)

// Member names one supervised VM.
type Member struct {
	// Name is the member's display name (its netsim host, typically).
	Name string
	// VM is the member's recording VM, polled for progress.
	VM *core.VM
	// WALPath is the member's write-ahead log, repaired on detection.
	WALPath string
}

// Config tunes detection and recovery.
type Config struct {
	// Heartbeat is the progress-poll interval. Zero means 2ms.
	Heartbeat time.Duration
	// FailAfter is the no-progress window after which a member is declared
	// failed. Zero means 250ms. It bounds detection latency from below, so
	// it also floors MTTR; soak tests shrink it, production keeps it above
	// the longest legitimate pause (GC, slow I/O) to avoid false positives.
	// Members parked in the coordinator's barrier are frozen but alive and
	// are never declared failed.
	FailAfter time.Duration
	// Metrics receives the supervisor's recovery counters and MTTR
	// observations. Nil means don't report. This is the supervisor's own
	// metric set — a supervised VM's metrics die with it.
	Metrics *obs.Metrics
	// Coordinator is the members' checkpoint coordinator (one member: a
	// coordinator of one). The supervisor consults it to tell barrier-parked
	// members from crashed ones and removes crashed members from it so
	// survivors resume. Required.
	Coordinator *recline.Coordinator
	// Restart, when set, is invoked once per crashed member with the
	// prepared recovery; it should rebuild the member from the anchor
	// checkpoint (or from zero), drive it to the end of its salvaged log,
	// and return when the replica has rejoined. Its duration is the recovery
	// half of MTTR.
	Restart func(*Recovery) error
}

// Recovery is one crashed member's prepared restart: the repaired log set
// and the anchor to resume from.
type Recovery struct {
	// Member is the member's index in the supervised slice; Name its name.
	Member int
	Name   string
	// Logs is the replayable set salvaged from the member's WAL; Report
	// describes the salvage: prefix bounds, dropped records, whether the
	// log was clean.
	Logs   *tracelog.Set
	Report *tracelog.RecoveryReport
	// Checkpoint is the restart anchor, nil when recovery falls back to
	// replay-from-zero.
	Checkpoint *checkpoint.Snapshot
	// OnLine reports that the anchor is the member's checkpoint on the
	// episode's recovery line (false: no complete line covered the member
	// and the latest salvaged checkpoint was used instead).
	OnLine bool
	// FallbackZero reports that no checkpoint was salvageable and the
	// restart replays from the beginning of the log.
	FallbackZero bool
	// LastTotal is the member's critical-event total at detection.
	LastTotal uint64
}

// Episode is one detection episode: the members declared failed together,
// the solved line, and their recoveries.
type Episode struct {
	// Crashed lists the failed members' indexes, ascending.
	Crashed []int
	// Solution is the full recovery-line solve over the set at detection
	// time; Line is its chosen line (nil when no complete line survived).
	Solution *recline.Solution
	Line     *recline.Line
	// Recoveries holds one prepared restart per crashed member, in Crashed
	// order.
	Recoveries []*Recovery
	// DetectLatency is the longest freeze among the declared members
	// (≥ FailAfter by construction); RecoverLatency spans detection to the
	// last restart returning — the per-episode MTTR observation.
	DetectLatency  time.Duration
	RecoverLatency time.Duration
}

// Outcome aggregates a supervision run.
type Outcome struct {
	// Detected reports whether any episode fired (false after Stop on
	// members that completed cleanly).
	Detected bool
	// Episodes lists the detection episodes in order.
	Episodes []*Episode
}

// Supervisor watches the member VMs. Create with Watch; it exits after Stop,
// after an episode fails, or once every member has either completed cleanly
// (MarkDone) or crashed and been recovered. Wait returns the outcome either
// way.
type Supervisor struct {
	cfg     Config
	members []Member
	stop    chan struct{}
	stopped sync.Once // Stop may race with itself: close(stop) runs once
	done    chan struct{}

	mu   sync.Mutex
	mark map[int]bool // members marked done by MarkDone

	outcome *Outcome
	err     error
}

// Watch starts supervising the members' progress. The returned Supervisor
// owns a single goroutine.
func Watch(members []Member, cfg Config) *Supervisor {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 250 * time.Millisecond
	}
	s := &Supervisor{
		cfg:     cfg,
		members: members,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		mark:    make(map[int]bool),
	}
	go s.run()
	return s
}

// MarkDone tells the supervisor the member completed cleanly: its counters
// may freeze without being declared failed. Call it from the member's own
// workload just before it returns.
func (s *Supervisor) MarkDone(member int) {
	s.mu.Lock()
	s.mark[member] = true
	s.mu.Unlock()
}

// Stop stands the supervisor down (the supervised VMs completed cleanly).
// Safe to call more than once; no-op while an episode is in flight.
func (s *Supervisor) Stop() {
	s.stopped.Do(func() { close(s.stop) })
}

// Wait blocks until supervision ends and returns the aggregated outcome —
// empty after a clean Stop. An error means detection fired but an episode's
// recovery itself failed (unreadable WAL, truncated log without a salvageable
// anchor, restart callback failure); the outcome still reports the failed
// episode and those that completed before it.
func (s *Supervisor) Wait() (*Outcome, error) {
	<-s.done
	return s.outcome, s.err
}

// memberState is the run loop's per-member bookkeeping.
type memberState struct {
	last      uint64
	lastMove  time.Time
	recovered bool
	salvaged  *tracelog.Set // set salvaged when the member crashed
}

func (s *Supervisor) run() {
	defer close(s.done)
	s.outcome = &Outcome{}
	tick := time.NewTicker(s.cfg.Heartbeat)
	defer tick.Stop()
	states := make([]memberState, len(s.members))
	now := time.Now()
	for i, m := range s.members {
		states[i] = memberState{last: m.VM.Metrics().TotalEvents(), lastMove: now}
	}
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		waiting := s.cfg.Coordinator.Waiting()
		s.mu.Lock()
		marked := make(map[int]bool, len(s.mark))
		for i := range s.mark {
			marked[i] = true
		}
		s.mu.Unlock()

		var crashed []int
		var maxFrozen time.Duration
		live := 0
		for i, m := range s.members {
			if states[i].recovered || marked[i] {
				continue
			}
			live++
			cur := m.VM.Metrics().TotalEvents()
			if cur != states[i].last {
				states[i].last, states[i].lastMove = cur, time.Now()
				continue
			}
			if waiting[m.VM.ID()] {
				// Parked in the coordinator barrier: frozen but alive.
				// Reset the clock so barrier time never counts toward the
				// member's own fail window.
				states[i].lastMove = time.Now()
				continue
			}
			if frozen := time.Since(states[i].lastMove); frozen >= s.cfg.FailAfter {
				crashed = append(crashed, i)
				if frozen > maxFrozen {
					maxFrozen = frozen
				}
			}
		}
		if live == 0 {
			return
		}
		if len(crashed) == 0 {
			continue
		}
		ep, err := s.episode(crashed, maxFrozen, states)
		s.outcome.Detected = true
		s.outcome.Episodes = append(s.outcome.Episodes, ep)
		if err != nil {
			s.err = err
			return
		}
		for _, i := range crashed {
			states[i].recovered = true
		}
	}
}

// episode runs one detect-salvage-solve-restart sequence for the members
// declared failed together.
func (s *Supervisor) episode(crashed []int, frozen time.Duration, states []memberState) (*Episode, error) {
	t0 := time.Now()
	ep := &Episode{Crashed: crashed, DetectLatency: frozen}
	err := s.salvageAndSolve(ep, states)
	// Release the survivors — future rounds no longer wait for the dead —
	// whether or not the salvage succeeded: a failed episode must not leave
	// them parked at the barrier forever. Only now, after the solve: it read
	// the survivors' live logs, which stay quiescent while they are parked.
	for _, i := range crashed {
		s.cfg.Coordinator.Remove(s.members[i].VM.ID())
	}
	if err != nil {
		return ep, err
	}
	for _, rec := range ep.Recoveries {
		if err := s.anchor(ep.Line, rec); err != nil {
			return ep, err
		}
		if s.cfg.Metrics != nil {
			s.cfg.Metrics.IncRecovery()
			if rec.FallbackZero {
				s.cfg.Metrics.IncFallback()
			}
		}
		if s.cfg.Restart != nil {
			if s.cfg.Metrics != nil {
				s.cfg.Metrics.IncRestart()
			}
			if err := s.cfg.Restart(rec); err != nil {
				return ep, fmt.Errorf("super: member %s: restart: %w", rec.Name, err)
			}
		}
	}
	ep.RecoverLatency = time.Since(t0)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveMTTR(ep.RecoverLatency)
	}
	return ep, nil
}

// salvageAndSolve repairs the crashed members' WALs into ep.Recoveries and
// solves the recovery line over every member's best available evidence: the
// fresh salvage for the members of this episode, earlier salvages for
// previously recovered members, and the live in-memory logs of the survivors.
func (s *Supervisor) salvageAndSolve(ep *Episode, states []memberState) error {
	for _, i := range ep.Crashed {
		m := s.members[i]
		logs, rep, err := tracelog.RecoverFile(m.WALPath)
		if err != nil {
			return fmt.Errorf("super: member %s: wal repair: %w", m.Name, err)
		}
		states[i].salvaged = logs
		ep.Recoveries = append(ep.Recoveries, &Recovery{
			Member: i, Name: m.Name, Logs: logs, Report: rep, LastTotal: states[i].last,
		})
	}
	sets := make([]*tracelog.Set, len(s.members))
	for i, m := range s.members {
		if sets[i] = states[i].salvaged; sets[i] == nil {
			sets[i] = m.VM.Logs()
		}
	}
	sol, err := recline.Solve(sets)
	if err != nil {
		return fmt.Errorf("super: recovery line: %w", err)
	}
	ep.Solution, ep.Line = sol, sol.Line
	if s.cfg.Metrics != nil {
		for n := sol.Fallbacks(); n > 0; n-- {
			s.cfg.Metrics.IncLineFallback()
		}
	}
	return nil
}

// anchor picks rec's restart checkpoint: the member's anchor on the solved
// line, else its latest salvaged checkpoint, else replay-from-zero.
func (s *Supervisor) anchor(line *recline.Line, rec *Recovery) error {
	if line != nil {
		if gc, ok := line.Anchors[s.members[rec.Member].VM.ID()]; ok {
			cp, err := checkpoint.At(rec.Logs, gc)
			if err != nil {
				return fmt.Errorf("super: member %s: line anchor %d: %w", rec.Name, gc, err)
			}
			rec.Checkpoint, rec.OnLine = cp, true
			return nil
		}
	}
	cp, err := checkpoint.Latest(rec.Logs)
	switch {
	case err == nil:
		rec.Checkpoint = cp
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		if rec.Report.BaseGC > 0 {
			// The WAL was truncated at a checkpoint, yet the salvaged prefix
			// holds none: the anchor record itself fell past the torn tail.
			// Nothing below BaseGC survives, so there is no resume point.
			return fmt.Errorf("super: member %s: log truncated at counter %d but no checkpoint salvaged — unrecoverable", rec.Name, rec.Report.BaseGC)
		}
		rec.FallbackZero = true
	default:
		return fmt.Errorf("super: member %s: %w", rec.Name, err)
	}
	return nil
}
