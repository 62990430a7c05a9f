// Package checkpoint implements the paper's stated future work: "integrating
// the system with checkpointing to bound the replay time" (§8, citing [10]).
//
// A checkpoint is a consistent local snapshot taken as one critical event:
// because the GC-critical section serializes all critical events of a DJVM,
// application state captured inside it is consistent with the global counter
// value stamped on the checkpoint. Replay can then resume from the latest
// checkpoint instead of the beginning: the VM's counter starts one past the
// checkpoint event, every thread's logical-schedule cursor is fast-forwarded,
// and the application restores its snapshot before executing further
// critical events.
//
// Scope: a checkpoint must be taken at a thread-quiescent point — while the
// checkpointing thread is the only thread with critical events still to
// execute, and with no network data in flight. The dejavu package's
// ExampleCheckpointTake and the tests structure their phases around such
// barriers, as coordinated checkpointing protocols do.
package checkpoint

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// ErrNoCheckpoint is returned when a log set contains no checkpoint.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint recorded")

// Snapshot is one recorded checkpoint.
type Snapshot struct {
	// GC is the counter value of the checkpoint critical event.
	GC ids.GCount
	// Resume is the replay configuration that picks up right after it.
	Resume core.ResumePoint
	// Data is the application state captured by Take.
	Data []byte
}

// Take records a checkpoint as one critical event of thread t, capturing the
// application state returned by save. It is a no-op returning nil data
// outside record mode (so application code can call it unconditionally; the
// resumed replay run must not re-take skipped checkpoints).
func Take(t *core.Thread, save func() []byte) {
	vm := t.VM()
	if vm.Mode() == ids.Replay {
		// The record-phase checkpoint was a critical event; replay must
		// consume its schedule slot to stay aligned, but captures nothing.
		t.CriticalKind(obs.KindCheckpoint, func(ids.GCount) {})
		return
	}
	if vm.Mode() != ids.Record {
		return
	}
	t.CriticalKind(obs.KindCheckpoint, func(gc ids.GCount) {
		vm.Logs().Schedule.Append(&tracelog.CheckpointEntry{
			GC:           gc,
			NextThread:   uint32(vm.NextThreadNum()),
			TakerThread:  t.Num(),
			MainEventNum: t.CurrentEventNum(),
			State:        save(),
		})
	})
}

// List returns every checkpoint in a recorded log set, in counter order.
func List(logs *tracelog.Set) ([]*Snapshot, error) {
	idx, err := tracelog.BuildScheduleIndex(logs.Schedule)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	out := make([]*Snapshot, len(idx.Checkpoints))
	for i, cp := range idx.Checkpoints {
		out[i] = &Snapshot{
			GC: cp.GC,
			Resume: core.ResumePoint{
				GC:           cp.GC + 1, // the checkpoint event itself is not re-executed
				NextThread:   ids.ThreadNum(cp.NextThread),
				MainThread:   cp.TakerThread,
				MainEventNum: cp.MainEventNum,
			},
			// The index copied the state out of the log, and this call
			// built its own index: Data is the caller's to write.
			Data: cp.State,
		}
	}
	return out, nil
}

// At returns the checkpoint anchored at exactly the given counter, or
// ErrNoCheckpoint when the set retains none there. Group recovery restarts a
// member from its recovery-line anchor, which is a specific checkpoint, not
// necessarily the latest one the salvage retained.
func At(logs *tracelog.Set, gc ids.GCount) (*Snapshot, error) {
	all, err := List(logs)
	if err != nil {
		return nil, err
	}
	for _, s := range all {
		if s.GC == gc {
			return s, nil
		}
	}
	return nil, ErrNoCheckpoint
}

// Latest returns the most recent checkpoint in a recorded log set.
func Latest(logs *tracelog.Set) (*Snapshot, error) {
	all, err := List(logs)
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, ErrNoCheckpoint
	}
	return all[len(all)-1], nil
}

// ResumeConfig builds the replay configuration that resumes from snap.
func ResumeConfig(base core.Config, logs *tracelog.Set, snap *Snapshot) core.Config {
	base.Mode = ids.Replay
	base.ReplayLogs = logs
	base.Resume = &snap.Resume
	return base
}
