// Package logcheck validates DJVM log sets before replay — an fsck for the
// record phase. A truncated, corrupted, or mismatched log would otherwise
// surface as a replay deadlock or divergence deep into execution; the
// checker turns those into upfront diagnostics.
//
// Single-VM checks validate the internal consistency of one log set; the
// cross-VM checks validate a closed world's worth of log sets against each
// other (every connection and datagram a receiver recorded must name a
// sender that exists and a counter value that sender actually reached).
package logcheck

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// Finding is one problem discovered in a log set.
type Finding struct {
	VM  ids.DJVMID
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("vm %d: %s", f.VM, f.Msg)
}

// Report is the outcome of a check run.
type Report struct {
	Findings []Finding
}

// OK reports whether no problems were found.
func (r *Report) OK() bool { return len(r.Findings) == 0 }

func (r *Report) addf(vm ids.DJVMID, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{VM: vm, Msg: fmt.Sprintf(format, args...)})
}

// CheckSet validates the internal consistency of one VM's log set.
func CheckSet(set *tracelog.Set) *Report {
	rep := &Report{}
	checkSet(rep, set)
	return rep
}

// checkSet adds one set's findings to rep and returns the indexes it checked:
// nil for a log that does not index, and all three nil when the schedule log
// does not.
func checkSet(rep *Report, set *tracelog.Set) (*tracelog.ScheduleIndex, *tracelog.NetworkIndex, *tracelog.DatagramIndex) {
	sched, err := tracelog.BuildScheduleIndex(set.Schedule)
	if err != nil {
		rep.addf(0, "schedule log unusable: %v", err)
		return nil, nil, nil
	}
	vm := sched.Meta.VM
	checkSchedule(rep, vm, sched)

	netIdx, err := tracelog.BuildNetworkIndex(set.Network)
	if err != nil {
		rep.addf(vm, "network log unusable: %v", err)
	} else {
		checkNetwork(rep, vm, sched, netIdx)
	}

	dgIdx, err := tracelog.BuildDatagramIndex(set.Datagram)
	if err != nil {
		rep.addf(vm, "datagram log unusable: %v", err)
	} else {
		checkDatagram(rep, vm, sched, dgIdx)
	}
	return sched, netIdx, dgIdx
}

// checkSchedule verifies every order stream (checkStream) and the records
// that belong to the VM as a whole.
func checkSchedule(rep *Report, vm ids.DJVMID, sched *tracelog.ScheduleIndex) {
	if sched.OrderMode == ids.OrderGlobal && len(sched.Streams) > 1 {
		rep.addf(vm, "schedule carries per-object order records but no sharded order-mode marker")
	}
	for i := range sched.Streams {
		checkStream(rep, vm, sched, &sched.Streams[i])
	}
	var lastTS ids.GCount
	for i, ts := range sched.Timestamps {
		if ts.GC > sched.Meta.FinalGC {
			rep.addf(vm, "timestamp record at counter %d beyond final counter %d", ts.GC, sched.Meta.FinalGC)
		}
		if ts.GC < sched.BaseGC {
			rep.addf(vm, "timestamp record at counter %d below truncation base %d", ts.GC, sched.BaseGC)
		}
		if i > 0 && ts.GC < lastTS {
			rep.addf(vm, "timestamps out of order at counter %d", ts.GC)
		}
		lastTS = ts.GC
	}
	var lastCP ids.GCount
	for i, cp := range sched.Checkpoints {
		if cp.GC >= sched.Meta.FinalGC {
			rep.addf(vm, "checkpoint at counter %d beyond final counter %d", cp.GC, sched.Meta.FinalGC)
		}
		if cp.GC < sched.BaseGC {
			rep.addf(vm, "checkpoint at counter %d below truncation base %d", cp.GC, sched.BaseGC)
		}
		if i > 0 && cp.GC <= lastCP {
			rep.addf(vm, "checkpoints out of order at counter %d", cp.GC)
		}
		lastCP = cp.GC
		if uint32(cp.TakerThread) >= sched.Meta.Threads {
			rep.addf(vm, "checkpoint taken by unknown thread %d", cp.TakerThread)
		}
	}
	// A truncated log must retain its anchor: the checkpoint whose counter
	// equals the base is the only resume point guaranteed to exist, and
	// truncation always keeps it. A compacted log without it is unreplayable
	// (no checkpoint at or past the base may exist at all).
	if sched.BaseGC > 0 {
		anchored := false
		for _, cp := range sched.Checkpoints {
			if cp.GC == sched.BaseGC {
				anchored = true
				break
			}
		}
		if !anchored {
			rep.addf(vm, "log truncated at counter %d but no checkpoint anchors that base", sched.BaseGC)
		}
	}
	checkGroupEpochs(rep, vm, sched)
}

// checkGroupEpochs verifies the coordinated-checkpoint stamps: epoch ids must
// be strictly increasing in append order, each stamp must land inside the
// replayable range, and the stamping VM must appear in its own member list
// with the stamp's counter as its anchor — backed by a checkpoint at exactly
// that counter, since a stamp without its anchor names a recovery line this
// member can never rejoin.
func checkGroupEpochs(rep *Report, vm ids.DJVMID, sched *tracelog.ScheduleIndex) {
	cps := make(map[ids.GCount]bool, len(sched.Checkpoints))
	for _, cp := range sched.Checkpoints {
		cps[cp.GC] = true
	}
	var lastEpoch uint64
	for i, ge := range sched.GroupEpochs {
		if i > 0 && ge.Epoch <= lastEpoch {
			rep.addf(vm, "group epoch %d follows epoch %d — ids not strictly increasing", ge.Epoch, lastEpoch)
		}
		lastEpoch = ge.Epoch
		if ge.GC >= sched.Meta.FinalGC {
			rep.addf(vm, "group epoch %d stamped at counter %d beyond final counter %d", ge.Epoch, ge.GC, sched.Meta.FinalGC)
		}
		if ge.GC < sched.BaseGC {
			rep.addf(vm, "group epoch %d stamped at counter %d below truncation base %d", ge.Epoch, ge.GC, sched.BaseGC)
		}
		self := false
		for _, m := range ge.Members {
			if m.VM == vm {
				self = true
				if m.AnchorGC != ge.GC {
					rep.addf(vm, "group epoch %d anchors this VM at counter %d but was stamped at %d", ge.Epoch, m.AnchorGC, ge.GC)
				}
			}
		}
		if !self {
			rep.addf(vm, "group epoch %d omits the stamping VM from its member list", ge.Epoch)
		}
		if !cps[ge.GC] {
			rep.addf(vm, "group epoch %d stamped at counter %d with no checkpoint at that anchor", ge.Epoch, ge.GC)
		}
	}
}

// checkStream verifies one order stream: its runs partition its counter
// range exactly — [BaseGC, FinalGC) on the global stream, where BaseGC is
// zero for an untruncated log and the checkpoint-truncation base of a
// compacted one, every record below it deliberately dropped; [0, End) on an
// object's, whose final counter the log does not record otherwise — they
// name threads that exist, and every notify and timed-wait record lands
// inside the range and wakes threads that exist. The index already rejects
// runs out of order (per thread on the global stream, per stream on an
// object's), so an object's stream can only have gaps.
func checkStream(rep *Report, vm ids.DJVMID, sched *tracelog.ScheduleIndex, s *tracelog.StreamSchedule) {
	base, final := ids.GCount(0), s.End()
	if s.ID == tracelog.GlobalStream {
		base, final = sched.BaseGC, sched.Meta.FinalGC
	}
	next := base
	for _, r := range s.Ordered() {
		if uint32(r.Thread) >= sched.Meta.Threads {
			rep.addf(vm, "%v: run [%d,%d] names unknown thread %d (meta records %d threads)", s.ID, r.First, r.Last, r.Thread, sched.Meta.Threads)
		}
		switch {
		case r.Last < base:
			rep.addf(vm, "%v: run [%d,%d] of thread %d lies below truncation base %d", s.ID, r.First, r.Last, r.Thread, base)
			continue
		case r.First < next:
			rep.addf(vm, "%v: run [%d,%d] of thread %d overlaps %s", s.ID, r.First, r.Last, r.Thread, s.ID.At(next-1))
		case r.First > next:
			rep.addf(vm, "%v: schedule gap: [%d,%d] covered by no run", s.ID, next, r.First-1)
		}
		next = max(next, r.Last+1)
	}
	if next != final {
		rep.addf(vm, "%v: runs cover up to %d but final counter is %d", s.ID, next, final)
	}
	inRange := func(what string, n ids.GCount) {
		if n >= final {
			rep.addf(vm, "%s record at %s beyond final counter %d", what, s.ID.At(n), final)
		}
		if n < base {
			rep.addf(vm, "%s record at %s below truncation base %d", what, s.ID.At(n), base)
		}
	}
	for _, n := range slices.Sorted(maps.Keys(s.Notifies)) {
		inRange("notify", n)
		for _, tn := range s.Notifies[n] {
			if uint32(tn) >= sched.Meta.Threads {
				rep.addf(vm, "notify at %s wakes unknown thread %d", s.ID.At(n), tn)
			}
		}
	}
	for _, n := range slices.Sorted(maps.Keys(s.TimedWaits)) {
		inRange("timed-wait", n)
	}
}

// checkNetwork verifies network-log records reference threads that exist
// and carry sane values.
func checkNetwork(rep *Report, vm ids.DJVMID, sched *tracelog.ScheduleIndex, idx *tracelog.NetworkIndex) {
	threadOK := func(ev ids.NetworkEventID, what string) {
		if uint32(ev.Thread) >= sched.Meta.Threads {
			rep.addf(vm, "%s record for unknown thread %d", what, ev.Thread)
		}
	}
	for ev, cid := range idx.ServerSockets.All() {
		threadOK(ev, "server-socket")
		// A connection from this same VM is legitimate — a loopback stream
		// (the explorer's generated programs build their channels this way).
		// For those the client thread must be one this VM created; foreign
		// client threads are validated cross-VM by CheckWorld instead.
		if cid.VM == vm && uint32(cid.Thread) >= sched.Meta.Threads {
			rep.addf(vm, "accept %v records a loopback connection from unknown thread %d", ev, cid.Thread)
		}
	}
	for ev := range idx.Reads.All() {
		threadOK(ev, "read")
	}
	for ev := range idx.Availables.All() {
		threadOK(ev, "available")
	}
	for ev, b := range idx.Binds.All() {
		threadOK(ev, "bind")
		if b.Port == 0 {
			rep.addf(vm, "bind %v recorded port 0", ev)
		}
	}
	for ev := range idx.Errs.All() {
		threadOK(ev, "net-err")
	}
	for ev := range idx.OpenReads.All() {
		threadOK(ev, "open-read")
	}
	for ev := range idx.Envs.All() {
		threadOK(ev, "env")
	}
	for ev, ns := range idx.NetSpans.All() {
		threadOK(ev, "net-span")
		if ns.GC >= sched.Meta.FinalGC {
			rep.addf(vm, "net-span %v at counter %d beyond final counter %d", ev, ns.GC, sched.Meta.FinalGC)
		}
		switch ns.Op {
		case tracelog.NetOpConnect, tracelog.NetOpAccept, tracelog.NetOpRead, tracelog.NetOpWrite:
		default:
			rep.addf(vm, "net-span %v has unknown op %d", ev, ns.Op)
		}
	}
}

// checkDatagram verifies datagram-log records against the schedule.
func checkDatagram(rep *Report, vm ids.DJVMID, sched *tracelog.ScheduleIndex, idx *tracelog.DatagramIndex) {
	for ev, entry := range idx.ByEvent.All() {
		if uint32(ev.Thread) >= sched.Meta.Threads {
			rep.addf(vm, "datagram-recv record for unknown thread %d", ev.Thread)
		}
		if entry.ReceiverGC >= sched.Meta.FinalGC {
			rep.addf(vm, "datagram-recv %v at counter %d beyond final counter %d",
				ev, entry.ReceiverGC, sched.Meta.FinalGC)
		}
		if entry.ReceiverGC < sched.BaseGC {
			rep.addf(vm, "datagram-recv %v at counter %d below truncation base %d",
				ev, entry.ReceiverGC, sched.BaseGC)
		}
		if entry.Datagram.VM == vm {
			rep.addf(vm, "datagram-recv %v names this same VM as sender", ev)
		}
	}
}

// CheckWorld validates a closed world's log sets against each other, after
// checking each individually. Every receiver-side record naming a peer VM
// must name one that exists, a thread it created, and a counter it reached.
func CheckWorld(sets []*tracelog.Set) *Report {
	rep := &Report{}
	metas := map[ids.DJVMID]tracelog.VMMeta{}
	indexes := map[ids.DJVMID]*tracelog.NetworkIndex{}
	dgIndexes := map[ids.DJVMID]*tracelog.DatagramIndex{}
	epochs := map[ids.DJVMID][]tracelog.GroupEpochEntry{}

	for _, set := range sets {
		sched, ni, di := checkSet(rep, set)
		if sched == nil {
			continue
		}
		if _, dup := metas[sched.Meta.VM]; dup {
			rep.addf(sched.Meta.VM, "duplicate DJVM id across the world's log sets")
			continue
		}
		metas[sched.Meta.VM] = sched.Meta
		epochs[sched.Meta.VM] = sched.GroupEpochs
		if ni != nil {
			indexes[sched.Meta.VM] = ni
		}
		if di != nil {
			dgIndexes[sched.Meta.VM] = di
		}
	}

	// Every carrier of a group-epoch stamp must agree on the epoch's member
	// list: the stamps are correlated copies of one recovery line, and a
	// disagreement means the sets are from different runs (or a coordinator
	// bug) — the line solver would refuse the epoch.
	type carrier struct {
		vm      ids.DJVMID
		members []tracelog.GroupMember
	}
	ref := map[uint64]carrier{}
	vms := make([]ids.DJVMID, 0, len(epochs))
	for vm := range epochs {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	for _, vm := range vms {
		for _, ge := range epochs[vm] {
			first, ok := ref[ge.Epoch]
			if !ok {
				ref[ge.Epoch] = carrier{vm: vm, members: ge.Members}
				continue
			}
			if !slices.Equal(first.members, ge.Members) {
				rep.addf(vm, "group epoch %d member list disagrees with VM %d's copy", ge.Epoch, first.vm)
			}
		}
	}

	for _, vm := range vms {
		ni, ok := indexes[vm]
		if !ok {
			continue
		}
		for ev, cid := range ni.ServerSockets.All() {
			peer, ok := metas[cid.VM]
			if !ok {
				rep.addf(vm, "accept %v names unknown peer VM %d", ev, cid.VM)
				continue
			}
			if uint32(cid.Thread) >= peer.Threads {
				rep.addf(vm, "accept %v names thread %d of VM %d, which created only %d threads",
					ev, cid.Thread, cid.VM, peer.Threads)
			}
		}
	}
	for _, vm := range vms {
		di, ok := dgIndexes[vm]
		if !ok {
			continue
		}
		for ev, entry := range di.ByEvent.All() {
			peer, ok := metas[entry.Datagram.VM]
			if !ok {
				rep.addf(vm, "datagram-recv %v names unknown sender VM %d", ev, entry.Datagram.VM)
				continue
			}
			if entry.Datagram.GC >= peer.FinalGC {
				rep.addf(vm, "datagram-recv %v names counter %d of VM %d, which only reached %d",
					ev, entry.Datagram.GC, entry.Datagram.VM, peer.FinalGC)
			}
		}
	}
	return rep
}
