// Package recline implements coordinated cross-VM checkpointing and
// recovery-line computation for a distributed log set.
//
// The protocol is a counter-barrier: each member VM, at a thread-quiescent
// point of its round structure, enters one checkpoint critical event and —
// still inside its GC-critical section — arrives at the group barrier with
// the event's counter value as its anchor. When every live member has
// arrived, the round completes: each member appends its local checkpoint
// record followed by a GroupEpochEntry naming the epoch id and the full
// member list with every member's anchor counter, then fsyncs its WAL before
// releasing the critical section. A completed epoch is therefore durable on
// every member, and every member's trace carries an identical copy of the
// recovery line — a salvageable subset of the set names its own lines.
//
// The recovery-line solver (Solve) walks the stamped epochs newest-first and
// picks the latest *complete* line: an epoch is complete only if every listed
// member's log still carries both the epoch stamp and a checkpoint at exactly
// that member's anchor counter (a torn WAL tail silently drops either, which
// is precisely how a crash demotes the line). Cross-VM messages (the
// datagrams and stream writes of tracelog.Messages, the enumeration the
// causal graph's message edges come from, in its order) are then
// classified against the line — stable (sent and received before it),
// in-flight (sent before, received after: replay re-delivers them from the
// receiver's own recorded stream/datagram records), or orphaned (received
// before, sent after: the receiver's checkpoint depends on state the sender
// would roll back, so the epoch is rejected and the previous complete line
// wins). Coordinated barriers never produce orphans; the rule is the safety
// net for hand-built or partially coordinated sets.
package recline

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/tracelog"
)

// Coordinator runs the counter-barrier protocol for one group of recording
// VMs. Members are fixed at construction; a crashed member is excluded with
// Remove, which also completes the round its survivors are parked in.
type Coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond

	members map[ids.DJVMID]bool // live membership
	waiting map[ids.DJVMID]bool // members parked in the current barrier
	arrived map[ids.DJVMID]ids.GCount
	gen     uint64 // barrier generation, bumped when a round completes
	epoch   uint64 // completed epochs

	// Completed-round results keyed by the generation they closed, so a
	// waiter slow to wake still reads its own round's line even if a later
	// round completes first. Pruned to the last few generations.
	results map[uint64]roundResult
}

type roundResult struct {
	epoch uint64
	line  []tracelog.GroupMember
}

// NewCoordinator creates a coordinator for the given member VMs.
func NewCoordinator(members ...ids.DJVMID) *Coordinator {
	c := &Coordinator{
		members: make(map[ids.DJVMID]bool, len(members)),
		waiting: make(map[ids.DJVMID]bool),
		arrived: make(map[ids.DJVMID]ids.GCount),
		results: make(map[uint64]roundResult),
	}
	c.cond = sync.NewCond(&c.mu)
	for _, m := range members {
		c.members[m] = true
	}
	return c
}

// Checkpoint takes one coordinated group checkpoint on thread t. In record
// mode it is one critical event: the member arrives at the barrier inside its
// GC-critical section with the event's counter as its anchor, blocks until
// every live member has arrived, then appends its checkpoint record and the
// epoch stamp and fsyncs its WAL. In replay mode it consumes the event's
// schedule slot without coordinating (a recovered member replays alone from
// its own log). Outside record and replay it is a no-op.
//
// Call it at a thread-quiescent point, like checkpoint.Take: the caller must
// be the only thread of its VM with critical events still to execute.
func (c *Coordinator) Checkpoint(t *core.Thread, save func() []byte) {
	vm := t.VM()
	switch vm.Mode() {
	case ids.Replay:
		t.CriticalKind(obs.KindCheckpoint, func(ids.GCount) {})
		return
	case ids.Record:
	default:
		return
	}
	t.CriticalKind(obs.KindCheckpoint, func(gc ids.GCount) {
		epoch, line := c.arrive(vm.ID(), gc)
		logs := vm.Logs()
		logs.Schedule.Append(&tracelog.CheckpointEntry{
			GC:           gc,
			NextThread:   uint32(vm.NextThreadNum()),
			TakerThread:  t.Num(),
			MainEventNum: t.CurrentEventNum(),
			State:        save(),
		})
		if line != nil {
			// The stamp follows its anchor in the WAL, so a salvaged stamp
			// implies a salvaged anchor on the same member.
			logs.Schedule.Append(&tracelog.GroupEpochEntry{Epoch: epoch, GC: gc, Members: line})
		}
		// Durability point: once every member passes here, the epoch is a
		// complete recovery line no later crash can lose.
		logs.SyncWAL()
	})
}

// arrive registers the member's anchor and blocks until the round completes
// (every live member arrived, or enough were Removed). It returns the
// completed epoch id and line, or (0, nil) when the VM is not a live member.
func (c *Coordinator) arrive(vm ids.DJVMID, gc ids.GCount) (uint64, []tracelog.GroupMember) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.members[vm] {
		return 0, nil
	}
	c.arrived[vm] = gc
	myGen := c.gen
	if c.roundCompleteLocked() {
		c.completeRoundLocked()
	} else {
		c.waiting[vm] = true
		for c.gen == myGen {
			c.cond.Wait()
		}
		delete(c.waiting, vm)
	}
	r := c.results[myGen]
	return r.epoch, r.line
}

// roundCompleteLocked reports whether every live member has arrived.
func (c *Coordinator) roundCompleteLocked() bool {
	if len(c.members) == 0 || len(c.arrived) == 0 {
		return false
	}
	for m := range c.members {
		if _, ok := c.arrived[m]; !ok {
			return false
		}
	}
	return true
}

// completeRoundLocked closes the round: assigns the epoch id, snapshots the
// line from the arrivals, and releases the waiters.
func (c *Coordinator) completeRoundLocked() {
	c.epoch++
	line := make([]tracelog.GroupMember, 0, len(c.arrived))
	for vm, gc := range c.arrived {
		line = append(line, tracelog.GroupMember{VM: vm, AnchorGC: gc})
	}
	sort.Slice(line, func(i, j int) bool { return line[i].VM < line[j].VM })
	c.results[c.gen] = roundResult{epoch: c.epoch, line: line}
	if c.gen >= 4 {
		delete(c.results, c.gen-4)
	}
	c.arrived = make(map[ids.DJVMID]ids.GCount)
	c.gen++
	c.cond.Broadcast()
}

// Remove excludes a crashed member from the group: future rounds no longer
// wait for it, and if the remaining members are all parked at the barrier the
// round completes without it. The group supervisor calls this after
// fail-stop detection so survivors keep running.
func (c *Coordinator) Remove(vm ids.DJVMID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.members[vm] {
		return
	}
	delete(c.members, vm)
	delete(c.arrived, vm)
	if c.roundCompleteLocked() {
		c.completeRoundLocked()
	}
}

// Waiting reports the members currently parked inside the barrier. A parked
// member's counter is frozen but the member is alive — the group supervisor
// must not declare it crashed.
func (c *Coordinator) Waiting() map[ids.DJVMID]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[ids.DJVMID]bool, len(c.waiting))
	for vm := range c.waiting {
		out[vm] = true
	}
	return out
}

// Epochs reports how many rounds have completed.
func (c *Coordinator) Epochs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}
