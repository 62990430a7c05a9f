// Package netevent is the one record/replay skeleton of a network event
// (§4.1.3, §5): the stream sockets of djsock, the datagram sockets of djgram
// and the environment queries of djenv run every event through it.
//
// A network event gets a networkEventId and is a critical event of its DJVM;
// one that may block runs outside the GC-critical section and is marked when
// it completes. The record phase logs the event's observable result, or the
// error it failed with. The replay phase does one of four things with it:
//
//	recorded error          consume the slot, re-throw the error
//	record, open scheme     consume the slot, serve the result from the log
//	record, closed scheme   re-execute under the recorded constraint
//	nothing recorded        the missing-record rule (Event.Replay)
//
// The operations supply what is theirs — the calls on the network, the entry
// they log, the index they look their record up in — and none of the rules.
package netevent

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// ErrDiverged is wrapped by errors returned when a replaying execution's
// network activity departs from the recorded one.
var ErrDiverged = errors.New("netevent: replay diverged from record")

// Divergef builds a replay-divergence error.
func Divergef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrDiverged, fmt.Sprintf(format, args...))
}

// ErrTimeout is the uniform SO_TIMEOUT error of the socket layers —
// java.net.SocketTimeoutException: deadline expiry satisfies
// errors.Is(err, ErrTimeout) in record, replay and passthrough modes alike.
var ErrTimeout = errors.New("netevent: operation timed out")

// ReplayedError is an error that was recorded during the record phase and is
// re-thrown during replay without re-executing the failed operation
// (§4.1.3).
type ReplayedError struct {
	Op  string
	Msg string
}

func (e *ReplayedError) Error() string {
	return fmt.Sprintf("%s: %s (replayed)", e.Op, e.Msg)
}

// Is makes replayed timeout outcomes carry the same uniform identity as live
// ones: a recorded SO_TIMEOUT expiry re-thrown during replay still satisfies
// errors.Is(err, ErrTimeout), even though the original error object is gone
// and only its recorded message remains.
func (e *ReplayedError) Is(target error) bool {
	return target == ErrTimeout && strings.Contains(e.Msg, "timed out")
}

// Event is one network event of a thread of a recording or replaying DJVM.
type Event struct {
	// ID is the event's networkEventId ⟨threadNum, eventNum⟩.
	ID ids.NetworkEventID

	t    *core.Thread
	kind obs.EventKind
	op   string
}

// Begin allocates the thread's next network event id for one op (the name a
// recorded failure is logged and re-thrown under) and counts the event. Event
// identification is the same in record and replay, whatever the recording
// scheme (§6).
func Begin(t *core.Thread, kind obs.EventKind, op string) Event {
	if kind != obs.KindEnv {
		// An environment query borrows the numbering but is no network
		// event: it stays out of the tables' "#nw events" column.
		t.CountNetworkEvent()
	}
	return Event{ID: t.EventID(t.NextEventNum()), t: t, kind: kind, op: op}
}

// Recording reports whether the event's DJVM is in the record phase (if not,
// it is replaying: passthrough runs have no network events).
func (ev Event) Recording() bool { return ev.t.VM().Mode() == ids.Record }

// Record runs the event in the record phase. block, when not nil, is the part
// that may block: it runs outside the GC-critical section and the event is
// marked when it completes (§4.1.3 "marking strategy"). mark runs inside the
// section, atomically with the event's counter value, unless block failed: it
// does what the operation does there and appends the operation's own entry,
// or returns why it could not. A failure of either half is the event's
// recorded outcome, and Record's result.
func (ev Event) Record(block func() error, mark func(gc ids.GCount) error) error {
	var err error
	section := func(gc ids.GCount) {
		if err == nil && mark != nil {
			err = mark(gc)
		}
		if err != nil {
			ev.t.VM().Logs().Network.Append(&tracelog.NetErrEntry{EventID: ev.ID, Op: ev.op, Msg: err.Error()})
		}
	}
	if block == nil {
		ev.t.CriticalKind(ev.kind, section)
	} else {
		ev.t.BlockingKind(ev.kind, func() { err = block() }, section)
	}
	return err
}

// consume takes an event's schedule slot and executes nothing.
func consume(ids.GCount) {}

// Replay is the replay phase's one decision about the event. recorded reports
// whether the operation found its own record; fromLog whether that record is
// the whole result (open scheme, §5: the network is not touched) or only the
// constraint under which block and mark — the halves Record takes — execute
// the event again.
//
// A recorded failure is re-thrown, by the operation that recorded it and no
// other, in the failed event's slot. An event with no record at all never
// happened in the record phase, so it owns no slot and consumes none: if the
// thread has no scheduled event left it has run off the end of its recording
// — the crash point, under StopAtLogEnd — and goes where any event beyond the
// schedule goes; a thread that still owns schedule is told it diverged. A
// re-executed event that fails is a divergence too, and its error wraps both
// ErrDiverged and the failure itself.
func (ev Event) Replay(recorded, fromLog bool, block func() error, mark func(gc ids.GCount) error) error {
	t := ev.t
	if e, failed := t.VM().NetworkIndex().Errs.Get(ev.ID); failed {
		if e.Op != ev.op {
			return Divergef("event %v recorded a failed %s, replayed as %s", ev.ID, e.Op, ev.op)
		}
		t.CriticalKind(ev.kind, consume)
		return &ReplayedError{Op: e.Op, Msg: e.Msg}
	}
	if !recorded {
		if t.RemainingScheduled() == 0 {
			t.EndOfSchedule(ev.op + " event")
		}
		return Divergef("%s event %v has no recorded outcome", ev.op, ev.ID)
	}
	var err error
	switch {
	case fromLog:
		t.CriticalKind(ev.kind, consume)
	case block == nil:
		t.CriticalKind(ev.kind, func(gc ids.GCount) { err = mark(gc) })
	default:
		t.BlockingKind(ev.kind, func() { err = block() }, func(gc ids.GCount) {
			if err == nil && mark != nil {
				err = mark(gc)
			}
		})
	}
	if err != nil && !errors.Is(err, ErrDiverged) {
		err = fmt.Errorf("%w: %s event %v failed during replay: %w", ErrDiverged, ev.op, ev.ID, err)
	}
	return err
}

// Do runs an event whose success leaves no record — there is nothing for
// replay to look up, so it executes the same halves again.
func (ev Event) Do(block func() error, mark func(gc ids.GCount) error) error {
	if ev.Recording() {
		return ev.Record(block, mark)
	}
	return ev.Replay(true, false, block, mark)
}

// Bind is the bind event of a server socket or a datagram socket (§4.1.3
// "Replaying available and bind"): record binds to port — 0 picks an
// ephemeral one — and logs the port it got; replay binds to the recorded
// port, and in the open world, where replay touches no network (§5), only
// reports it: bind is not called. A passthrough run just binds.
func Bind(t *core.Thread, kind obs.EventKind, op string, port uint16, bind func(port uint16) (uint16, error)) (uint16, error) {
	vm := t.VM()
	if vm.Mode() == ids.Passthrough {
		return bind(port)
	}
	ev := Begin(t, kind, op)
	if ev.Recording() {
		err := ev.Record(nil, func(ids.GCount) (err error) {
			if port, err = bind(port); err == nil {
				vm.Logs().Network.Append(&tracelog.BindEntry{EventID: ev.ID, Port: port})
			}
			return err
		})
		return port, err
	}
	entry, ok := vm.NetworkIndex().Binds.Get(ev.ID)
	return entry.Port, ev.Replay(ok, vm.World() == ids.OpenWorld, nil, func(ids.GCount) error {
		_, err := bind(entry.Port)
		return err
	})
}

// OpenWrite is a send to a non-DJVM peer, stream or datagram (§5): record
// sends inside the GC-critical section and logs the message's length and
// checksum; "any message sent to a non-DJVM thread during the record phase
// need not be sent again during the replay phase", which only verifies that
// the replayed execution produced the same message.
func (ev Event) OpenWrite(p []byte, send func() error) error {
	vm := ev.t.VM()
	if ev.Recording() {
		// p is the caller's for the whole call: its checksum is taken out
		// here, not under the VM's lock.
		sum := tracelog.WideSum(p)
		return ev.Record(nil, func(ids.GCount) error {
			err := send()
			if err == nil {
				vm.Logs().Network.Append(&tracelog.OpenWriteEntry{EventID: ev.ID, Len: uint32(len(p)), Sum: sum})
			}
			return err
		})
	}
	entry, ok := vm.NetworkIndex().OpenWrites.Get(ev.ID)
	if err := ev.Replay(ok, true, nil, nil); err != nil {
		return err
	}
	if err := entry.Verify(p); err != nil {
		return Divergef("%s event %v payload differs from record: %v", ev.op, ev.ID, err)
	}
	return nil
}
