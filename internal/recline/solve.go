package recline

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
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

// Message is one cross-VM message between line members (tracelog.Messages):
// a datagram, whose delivery record names the sender's ⟨VM, counter⟩, or
// stream bytes, matched through causal net-spans when the recording carried
// them. Class is its relation to the chosen line.
type Message struct {
	tracelog.Message
	Class Class
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
	epochs map[uint64]tracelog.GroupEpochEntry
	cps    map[ids.GCount]bool
}

// Solve computes the latest complete recovery line of a distributed log set.
// Each set is one member's salvaged (tracelog.RecoverFile) or live log set,
// in any order; members absent from sets can only demote epochs that list
// them. Solving the same sets twice gives the same Solution.
func Solve(sets []*tracelog.Set) (*Solution, error) {
	xs := make([]*tracelog.SetIndex, 0, len(sets))
	for i, s := range sets {
		x, err := tracelog.IndexSet(s)
		if err != nil {
			return nil, fmt.Errorf("recline: log set %d: %w", i, err)
		}
		xs = append(xs, x)
	}
	slices.SortStableFunc(xs, func(a, b *tracelog.SetIndex) int { return cmp.Compare(a.VM(), b.VM()) })
	views := make(map[ids.DJVMID]*memberView, len(xs))
	for i, x := range xs {
		vm := x.VM()
		if i > 0 && xs[i-1].VM() == vm {
			return nil, fmt.Errorf("recline: two sets claim vm %d", vm)
		}
		v := &memberView{
			epochs: make(map[uint64]tracelog.GroupEpochEntry, len(x.Schedule.GroupEpochs)),
			cps:    make(map[ids.GCount]bool, len(x.Schedule.Checkpoints)),
		}
		for _, ge := range x.Schedule.GroupEpochs {
			v.epochs[ge.Epoch] = ge
		}
		for _, cp := range x.Schedule.Checkpoints {
			v.cps[cp.GC] = true
		}
		views[vm] = v
	}

	// The solver classifies datagrams and stream bytes; a handshake carries
	// no application state.
	all, _ := tracelog.Messages(xs)
	msgs := slices.DeleteFunc(all, func(m tracelog.Message) bool { return m.Kind == tracelog.MsgHandshake })

	// Candidate epochs, newest first.
	var epochs []uint64
	for _, v := range views {
		epochs = slices.AppendSeq(epochs, maps.Keys(v.epochs))
	}
	slices.Sort(epochs)
	epochs = slices.Compact(epochs)
	slices.Reverse(epochs)

	sol := &Solution{}
	for _, e := range epochs {
		cand := Candidate{Epoch: e}
		// The reference member list: every carrier of the stamp must agree.
		var ref []tracelog.GroupMember
		mismatch := false
		for _, x := range xs {
			ge, ok := views[x.VM()].epochs[e]
			if !ok {
				continue
			}
			if ref == nil {
				ref = ge.Members
			} else if !slices.Equal(ref, ge.Members) {
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

// classify tags each message whose endpoints are both line members.
// Messages touching a VM outside the line are not the group's concern and
// are skipped.
func classify(msgs []tracelog.Message, anchors map[ids.DJVMID]ids.GCount) ([]Message, map[Class]int) {
	var out []Message
	counts := map[Class]int{}
	for _, tm := range msgs {
		sa, okS := anchors[tm.From.VM]
		ra, okR := anchors[tm.To.VM]
		if !okS || !okR {
			continue
		}
		m := Message{Message: tm}
		sentBefore := m.From.GC <= sa
		recvBefore := m.To.GC <= ra
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
