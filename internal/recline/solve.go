package recline

import (
	"fmt"
	"sort"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// Class is how a cross-VM message relates to a recovery line.
type Class uint8

const (
	// ClassStable: sent and received at or before the line — both endpoints'
	// checkpoints already reflect it, recovery never revisits it.
	ClassStable Class = iota
	// ClassInFlight: sent at or before the line, received after it. The
	// receiver's resumed replay re-executes the receive, and the content is
	// re-delivered from the receiver's own recorded stream/datagram records —
	// the sender is never asked to resend.
	ClassInFlight
	// ClassOrphan: received at or before the line but sent after it — the
	// receiver's checkpoint depends on an event the sender would roll back.
	// An orphan invalidates the candidate line.
	ClassOrphan
	// ClassPost: sent and received after the line; both sides re-execute it
	// during replay.
	ClassPost
)

func (c Class) String() string {
	switch c {
	case ClassStable:
		return "stable"
	case ClassInFlight:
		return "in-flight"
	case ClassOrphan:
		return "orphan"
	case ClassPost:
		return "post"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Message is one cross-VM message found in the set, with both endpoints'
// counter values: datagrams directly from the delivery record (which names
// the sender's ⟨VM, counter⟩), stream bytes from matched causal net-spans
// when the recording carried them.
type Message struct {
	Sender     ids.DJVMID
	SenderGC   ids.GCount
	Receiver   ids.DJVMID
	ReceiverGC ids.GCount
	Stream     bool // matched via net-span records rather than a datagram
	Class      Class
}

// Line is a consistent recovery line: one anchor checkpoint per member.
type Line struct {
	Epoch   uint64
	Anchors map[ids.DJVMID]ids.GCount
}

// Members returns the line's member ids in ascending order.
func (l *Line) Members() []ids.DJVMID {
	out := make([]ids.DJVMID, 0, len(l.Anchors))
	for vm := range l.Anchors {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Candidate is the audit record of one examined epoch, newest first.
type Candidate struct {
	Epoch uint64
	// Chosen marks the epoch the solver settled on.
	Chosen bool
	// Rejected is why the epoch was demoted ("" when chosen): a member list
	// disagreement, lost anchors, or orphaned messages.
	Rejected string
	// Missing lists members whose stamp or anchor checkpoint the salvage
	// lost (torn write, truncation, or a wholly absent log).
	Missing []ids.DJVMID
	// Orphans counts messages that would be orphaned by this line.
	Orphans int
}

// Solution is the solver's full result.
type Solution struct {
	// Line is the latest complete recovery line, nil when no stamped epoch
	// survives complete (recovery then falls back to per-member restarts
	// with no cross-VM consistency claim).
	Line *Line
	// Candidates records every epoch examined, newest first, with the
	// rejection reason for each demoted one.
	Candidates []Candidate
	// Messages is every cross-VM message between line members, classified
	// against the chosen line. Empty when Line is nil.
	Messages []Message
	// Stable, InFlight and Post count Messages by class (a chosen line has
	// no orphans by construction).
	Stable, InFlight, Post int
}

// Fallbacks counts the epochs the solver examined and rejected before
// settling (0 when the newest epoch was chosen).
func (s *Solution) Fallbacks() int {
	n := 0
	for _, c := range s.Candidates {
		if c.Rejected != "" {
			n++
		}
	}
	return n
}

// memberView is one member's indexed salvage.
type memberView struct {
	sched  *tracelog.ScheduleIndex
	net    *tracelog.NetworkIndex
	dg     *tracelog.DatagramIndex
	epochs map[uint64]tracelog.GroupEpochEntry
	cps    map[ids.GCount]bool
}

// Solve computes the latest complete recovery line of a distributed log set.
// Each set is one member's salvaged (tracelog.RecoverFile) or live log set;
// members absent from sets can only demote epochs that list them.
func Solve(sets []*tracelog.Set) (*Solution, error) {
	views := make(map[ids.DJVMID]*memberView, len(sets))
	var vmOrder []ids.DJVMID
	for _, s := range sets {
		sched, err := tracelog.BuildScheduleIndex(s.Schedule)
		if err != nil {
			return nil, fmt.Errorf("recline: %w", err)
		}
		net, err := tracelog.BuildNetworkIndex(s.Network)
		if err != nil {
			return nil, fmt.Errorf("recline: vm %d: %w", sched.Meta.VM, err)
		}
		dg, err := tracelog.BuildDatagramIndex(s.Datagram)
		if err != nil {
			return nil, fmt.Errorf("recline: vm %d: %w", sched.Meta.VM, err)
		}
		vm := sched.Meta.VM
		if _, dup := views[vm]; dup {
			return nil, fmt.Errorf("recline: two sets claim vm %d", vm)
		}
		v := &memberView{
			sched:  sched,
			net:    net,
			dg:     dg,
			epochs: make(map[uint64]tracelog.GroupEpochEntry, len(sched.GroupEpochs)),
			cps:    make(map[ids.GCount]bool, len(sched.Checkpoints)),
		}
		for _, ge := range sched.GroupEpochs {
			v.epochs[ge.Epoch] = ge
		}
		for _, cp := range sched.Checkpoints {
			v.cps[cp.GC] = true
		}
		views[vm] = v
		vmOrder = append(vmOrder, vm)
	}
	sort.Slice(vmOrder, func(i, j int) bool { return vmOrder[i] < vmOrder[j] })

	msgs := crossMessages(views, vmOrder)

	// Candidate epochs, newest first.
	epochSet := map[uint64]bool{}
	for _, vm := range vmOrder {
		for e := range views[vm].epochs {
			epochSet[e] = true
		}
	}
	epochs := make([]uint64, 0, len(epochSet))
	for e := range epochSet {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })

	sol := &Solution{}
	for _, e := range epochs {
		cand := Candidate{Epoch: e}
		// The reference member list: every carrier of the stamp must agree.
		var ref []tracelog.GroupMember
		mismatch := false
		for _, vm := range vmOrder {
			ge, ok := views[vm].epochs[e]
			if !ok {
				continue
			}
			if ref == nil {
				ref = ge.Members
			} else if !sameMembers(ref, ge.Members) {
				mismatch = true
			}
		}
		if mismatch {
			cand.Rejected = "member lists disagree across the set"
			sol.Candidates = append(sol.Candidates, cand)
			continue
		}
		// Completeness: every listed member still carries the stamp and a
		// checkpoint at exactly its anchor.
		anchors := make(map[ids.DJVMID]ids.GCount, len(ref))
		for _, m := range ref {
			anchors[m.VM] = m.AnchorGC
			v, ok := views[m.VM]
			if !ok {
				cand.Missing = append(cand.Missing, m.VM)
				continue
			}
			if _, ok := v.epochs[e]; !ok || !v.cps[m.AnchorGC] {
				cand.Missing = append(cand.Missing, m.VM)
			}
		}
		if len(cand.Missing) > 0 {
			cand.Rejected = fmt.Sprintf("anchor lost on %d member(s)", len(cand.Missing))
			sol.Candidates = append(sol.Candidates, cand)
			continue
		}
		// Consistency: no message may be orphaned by this line.
		classified, counts := classify(msgs, anchors)
		if counts[ClassOrphan] > 0 {
			cand.Orphans = counts[ClassOrphan]
			cand.Rejected = fmt.Sprintf("%d orphaned message(s)", counts[ClassOrphan])
			sol.Candidates = append(sol.Candidates, cand)
			continue
		}
		cand.Chosen = true
		sol.Candidates = append(sol.Candidates, cand)
		sol.Line = &Line{Epoch: e, Anchors: anchors}
		sol.Messages = classified
		sol.Stable = counts[ClassStable]
		sol.InFlight = counts[ClassInFlight]
		sol.Post = counts[ClassPost]
		break
	}
	return sol, nil
}

// sameMembers reports whether two member lists name the same anchors (both
// are sorted by VM at stamp time).
func sameMembers(a, b []tracelog.GroupMember) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// classify tags each message whose endpoints are both line members.
// Messages touching a VM outside the line are not the group's concern and
// are skipped.
func classify(msgs []Message, anchors map[ids.DJVMID]ids.GCount) ([]Message, map[Class]int) {
	var out []Message
	counts := map[Class]int{}
	for _, m := range msgs {
		sa, okS := anchors[m.Sender]
		ra, okR := anchors[m.Receiver]
		if !okS || !okR {
			continue
		}
		sentBefore := m.SenderGC <= sa
		recvBefore := m.ReceiverGC <= ra
		switch {
		case sentBefore && recvBefore:
			m.Class = ClassStable
		case sentBefore && !recvBefore:
			m.Class = ClassInFlight
		case !sentBefore && recvBefore:
			m.Class = ClassOrphan
		default:
			m.Class = ClassPost
		}
		counts[m.Class]++
		out = append(out, m)
	}
	return out, counts
}

// crossMessages enumerates every cross-VM message visible in the set, with
// both endpoints' counter values. Datagram deliveries carry the sender's
// ⟨VM, counter⟩ natively; stream bytes are matched write-span → read-span per
// connection and direction when the recording carried causal net-spans
// (core.EnableCausalTrace) — without them, stream traffic is invisible here,
// exactly as it is to the causal analyzer.
func crossMessages(views map[ids.DJVMID]*memberView, vmOrder []ids.DJVMID) []Message {
	var msgs []Message

	// Datagrams.
	for _, rvm := range vmOrder {
		v := views[rvm]
		for _, entry := range v.dg.ByEvent.All() {
			svm := entry.Datagram.VM
			if svm == rvm {
				continue
			}
			if _, ok := views[svm]; !ok {
				continue
			}
			msgs = append(msgs, Message{
				Sender: svm, SenderGC: entry.Datagram.GC,
				Receiver: rvm, ReceiverGC: entry.ReceiverGC,
			})
		}
	}

	// Stream bytes via net-spans: per ⟨connection, writer⟩, match each write
	// span to every peer read span its byte range overlaps.
	type dirKey struct {
		conn ids.ConnectionID
		vm   ids.DJVMID
	}
	writes := map[dirKey][]tracelog.NetSpanEntry{}
	reads := map[dirKey][]tracelog.NetSpanEntry{}
	for _, vm := range vmOrder {
		for _, ns := range views[vm].net.NetSpans.All() {
			switch ns.Op {
			case tracelog.NetOpWrite:
				writes[dirKey{ns.Conn, vm}] = append(writes[dirKey{ns.Conn, vm}], ns)
			case tracelog.NetOpRead:
				reads[dirKey{ns.Conn, vm}] = append(reads[dirKey{ns.Conn, vm}], ns)
			}
		}
	}
	wkeys := make([]dirKey, 0, len(writes))
	for k := range writes {
		wkeys = append(wkeys, k)
	}
	sort.Slice(wkeys, func(i, j int) bool {
		if wkeys[i].vm != wkeys[j].vm {
			return wkeys[i].vm < wkeys[j].vm
		}
		return wkeys[i].conn.VM < wkeys[j].conn.VM
	})
	for _, wk := range wkeys {
		ws := append([]tracelog.NetSpanEntry(nil), writes[wk]...)
		sort.Slice(ws, func(i, j int) bool { return ws[i].Offset < ws[j].Offset })
		for _, rvm := range vmOrder {
			if rvm == wk.vm {
				continue
			}
			rs := append([]tracelog.NetSpanEntry(nil), reads[dirKey{wk.conn, rvm}]...)
			if len(rs) == 0 {
				continue
			}
			sort.Slice(rs, func(i, j int) bool { return rs[i].Offset < rs[j].Offset })
			ri := 0
			for _, w := range ws {
				wEnd := w.Offset + uint64(w.Len)
				for ri < len(rs) && rs[ri].Offset+uint64(rs[ri].Len) <= w.Offset {
					ri++
				}
				if ri == len(rs) || rs[ri].Offset >= wEnd {
					continue
				}
				msgs = append(msgs, Message{
					Sender: wk.vm, SenderGC: w.GC,
					Receiver: rvm, ReceiverGC: rs[ri].GC,
					Stream: true,
				})
			}
		}
	}
	return msgs
}
