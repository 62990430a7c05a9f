package tracelog

import (
	"fmt"
	"sort"

	"repro/internal/ids"
)

// ScheduleIndex is the replay-side view of a schedule log: per-thread logical
// schedule intervals in execution order, notify payloads keyed by global
// counter, and checkpoints in counter order.
type ScheduleIndex struct {
	Meta        VMMeta
	Intervals   map[ids.ThreadNum][]Interval
	Notifies    map[ids.GCount][]ids.ThreadNum
	TimedWaits  map[ids.GCount]TimedWaitEntry
	Checkpoints []CheckpointEntry
	// Timestamps are the optional sampled wall-clock anchors, in append
	// (hence GC) order. Replay never consults them; the causal analyzer does.
	Timestamps []TimestampEntry

	// BaseGC is the checkpoint-anchored truncation base: 0 for an untruncated
	// log, otherwise the counter the compacted stream starts at. A truncated
	// set can only be replayed from a Resume point past the base.
	BaseGC ids.GCount
	// ChaosPlan is the embedded fault schedule of a chaos run, nil when the
	// recording ran without one.
	ChaosPlan *ChaosPlanEntry
	// GroupEpochs are the coordinated checkpoint stamps in append (hence
	// epoch) order. Empty outside group recording; replay never consults
	// them — the recovery-line solver and logcheck do.
	GroupEpochs []GroupEpochEntry

	// OrderMode is the order mode the log was recorded under. Logs without an
	// order-mode record (every global-mode and pre-sharding log) index as
	// OrderGlobal.
	OrderMode ids.OrderMode
	// ObjRuns holds each registered object's access runs in per-object
	// execution order (append order per object is access order, the way
	// interval append order per thread is execution order). Empty outside
	// sharded mode.
	ObjRuns map[ids.ObjectID][]ObjRun
	// ObjNotifies and ObjTimedWaits key sharded-mode notify payloads and
	// timed-wait resolutions by the event's ⟨object, accessSeq⟩.
	ObjNotifies   map[ObjEvent][]ids.ThreadNum
	ObjTimedWaits map[ObjEvent]ObjTimedWait
}

// ObjEvent identifies one sharded-mode critical event as the pair
// ⟨object, accessSeq⟩ — the per-object analogue of a GCount.
type ObjEvent struct {
	Obj ids.ObjectID
	Seq ids.AccessSeq
}

// The Build*Index functions walk the byte stream with one reused scratch
// record per kind and copy what they keep into the index structures: replay
// startup over a large log never materializes the intermediate []Entry slice
// that Parse builds.

// BuildScheduleIndex decodes a schedule log and indexes it for replay.
// Interval order within a thread is preserved from append order, which is the
// thread's execution order; intervals are additionally validated to be
// non-overlapping and increasing per thread.
func BuildScheduleIndex(l *Log) (*ScheduleIndex, error) {
	idx := &ScheduleIndex{
		Intervals:     make(map[ids.ThreadNum][]Interval),
		Notifies:      make(map[ids.GCount][]ids.ThreadNum),
		TimedWaits:    make(map[ids.GCount]TimedWaitEntry),
		ObjRuns:       make(map[ids.ObjectID][]ObjRun),
		ObjNotifies:   make(map[ObjEvent][]ids.ThreadNum),
		ObjTimedWaits: make(map[ObjEvent]ObjTimedWait),
	}
	var scratch [kindMax]Entry
	sizeRuns(idx, l, &scratch)
	sawMeta := false
	err := l.walk(&scratch, func(e Entry) error {
		switch v := e.(type) {
		case *Interval:
			if v.Last < v.First {
				return corruptf("interval for thread %d has Last %d < First %d", v.Thread, v.Last, v.First)
			}
			ivs := idx.Intervals[v.Thread]
			if n := len(ivs); n > 0 && ivs[n-1].Last >= v.First {
				return corruptf("intervals for thread %d out of order: [%d,%d] then [%d,%d]",
					v.Thread, ivs[n-1].First, ivs[n-1].Last, v.First, v.Last)
			}
			idx.Intervals[v.Thread] = append(ivs, *v)
		case *Notify:
			idx.Notifies[v.GC] = v.Woken
		case *TimedWaitEntry:
			idx.TimedWaits[v.GC] = *v
		case *VMMeta:
			idx.Meta = *v
			sawMeta = true
		case *CheckpointEntry:
			idx.Checkpoints = append(idx.Checkpoints, *v)
		case *OpenInterval:
			// Durability notes for crash recovery only; they carry no
			// schedule semantics, so replay skips them.
		case *TimestampEntry:
			// Optional wall-clock anchors; replay ignores them, analysis
			// reads them through the index.
			idx.Timestamps = append(idx.Timestamps, *v)
		case *OrderModeEntry:
			if v.Mode != ids.OrderGlobal && v.Mode != ids.OrderSharded {
				return corruptf("unknown order mode %d", uint8(v.Mode))
			}
			idx.OrderMode = v.Mode
		case *ObjRun:
			if v.Last < v.First {
				return corruptf("obj-run for %v has Last %d < First %d", v.Obj, v.Last, v.First)
			}
			runs := idx.ObjRuns[v.Obj]
			if n := len(runs); n > 0 && runs[n-1].Last >= v.First {
				return corruptf("obj-runs for %v out of order: [%d,%d] then [%d,%d]",
					v.Obj, runs[n-1].First, runs[n-1].Last, v.First, v.Last)
			}
			idx.ObjRuns[v.Obj] = append(runs, *v)
		case *ObjNotify:
			idx.ObjNotifies[ObjEvent{v.Obj, v.Seq}] = v.Woken
		case *ObjTimedWait:
			idx.ObjTimedWaits[ObjEvent{v.Obj, v.Seq}] = *v
		case *TruncationEntry:
			if v.BaseGC > idx.BaseGC {
				idx.BaseGC = v.BaseGC
			}
		case *ChaosPlanEntry:
			plan := *v
			idx.ChaosPlan = &plan
		case *GroupEpochEntry:
			idx.GroupEpochs = append(idx.GroupEpochs, *v)
		default:
			return misplaced(e.Kind(), logSchedule)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, corruptf("schedule log has no vm-meta record")
	}
	sort.Slice(idx.Checkpoints, func(i, j int) bool {
		return idx.Checkpoints[i].GC < idx.Checkpoints[j].GC
	})
	return idx, nil
}

// sizeRuns gives every thread's Intervals and every object's ObjRuns their
// final capacity before the index is filled. Under real parallelism a log is
// mostly these two record kinds, one per lock hand-off, and a slice grown by
// append has allocated about five times what it ends up holding. The counts
// come from the records decoded in a walk of their own — never from a length
// field, so a log cannot make the index allocate more than a small multiple of
// its own size — and a damaged stream sizes what precedes the damage: the
// filling walk is the one that reports it.
func sizeRuns(idx *ScheduleIndex, l *Log, scratch *[kindMax]Entry) {
	intervals := make(map[ids.ThreadNum]int)
	runs := make(map[ids.ObjectID]int)
	var nIntervals, nRuns int
	_ = l.walk(scratch, func(e Entry) error {
		switch v := e.(type) {
		case *Interval:
			intervals[v.Thread]++
			nIntervals++
		case *ObjRun:
			runs[v.Obj]++
			nRuns++
		}
		return nil
	})
	// One backing array per kind, carved: a thread's or an object's slice
	// fills exactly its share and never reallocates.
	ivs := make([]Interval, nIntervals)
	for tn, n := range intervals {
		idx.Intervals[tn], ivs = ivs[:0:n], ivs[n:]
	}
	ors := make([]ObjRun, nRuns)
	for obj, n := range runs {
		idx.ObjRuns[obj], ors = ors[:0:n], ors[n:]
	}
}

// NetworkIndex is the replay-side view of a NetworkLogFile. Closed-world
// replay entries and open-world content entries are keyed by the network
// event id ⟨threadNum, eventNum⟩, which the paper guarantees is identical
// across record and replay (§4.1.3).
type NetworkIndex struct {
	// ServerSockets maps an accept's networkEventId to the connectionId that
	// the matching record-phase connection carried.
	ServerSockets map[ids.NetworkEventID]ids.ConnectionID
	Reads         map[ids.NetworkEventID]ReadEntry
	Availables    map[ids.NetworkEventID]AvailableEntry
	Binds         map[ids.NetworkEventID]BindEntry
	Errs          map[ids.NetworkEventID]NetErrEntry
	OpenConnects  map[ids.NetworkEventID]OpenConnectEntry
	OpenAccepts   map[ids.NetworkEventID]OpenAcceptEntry
	OpenReads     map[ids.NetworkEventID]OpenReadEntry
	OpenWrites    map[ids.NetworkEventID]OpenWriteEntry
	OpenDatagrams map[ids.NetworkEventID]OpenDatagramEntry
	Envs          map[ids.NetworkEventID]EnvEntry
	// NetSpans holds the optional causal-tracing annotations keyed by the
	// annotated event's id. Replay never consults them.
	NetSpans map[ids.NetworkEventID]NetSpanEntry
}

// dupError reports two log entries claiming the same network event.
type dupError struct{ kind Kind }

func (e dupError) Error() string {
	return fmt.Sprintf("tracelog: duplicate %v entry for one network event", e.kind)
}

// BuildNetworkIndex decodes a NetworkLogFile and indexes it for replay.
// A duplicate key is a corruption error except for ServerSocketEntries, whose
// lack of uniqueness the paper explicitly tolerates ("this lack of unique
// entries is not a problem", §4.1.3) — uniqueness of our extended
// connectionId makes duplicates impossible in practice, but the first entry
// wins to mirror the paper's semantics.
func BuildNetworkIndex(l *Log) (*NetworkIndex, error) {
	idx := &NetworkIndex{
		ServerSockets: make(map[ids.NetworkEventID]ids.ConnectionID),
		Reads:         make(map[ids.NetworkEventID]ReadEntry),
		Availables:    make(map[ids.NetworkEventID]AvailableEntry),
		Binds:         make(map[ids.NetworkEventID]BindEntry),
		Errs:          make(map[ids.NetworkEventID]NetErrEntry),
		OpenConnects:  make(map[ids.NetworkEventID]OpenConnectEntry),
		OpenAccepts:   make(map[ids.NetworkEventID]OpenAcceptEntry),
		OpenReads:     make(map[ids.NetworkEventID]OpenReadEntry),
		OpenWrites:    make(map[ids.NetworkEventID]OpenWriteEntry),
		OpenDatagrams: make(map[ids.NetworkEventID]OpenDatagramEntry),
		Envs:          make(map[ids.NetworkEventID]EnvEntry),
		NetSpans:      make(map[ids.NetworkEventID]NetSpanEntry),
	}
	var scratch [kindMax]Entry
	err := l.walk(&scratch, func(e Entry) error {
		switch v := e.(type) {
		case *ServerSocketEntry:
			if _, ok := idx.ServerSockets[v.ServerID]; !ok {
				idx.ServerSockets[v.ServerID] = v.ClientID
			}
		case *ReadEntry:
			if _, ok := idx.Reads[v.EventID]; ok {
				return dupError{KindRead}
			}
			idx.Reads[v.EventID] = *v
		case *AvailableEntry:
			if _, ok := idx.Availables[v.EventID]; ok {
				return dupError{KindAvailable}
			}
			idx.Availables[v.EventID] = *v
		case *BindEntry:
			if _, ok := idx.Binds[v.EventID]; ok {
				return dupError{KindBind}
			}
			idx.Binds[v.EventID] = *v
		case *NetErrEntry:
			if _, ok := idx.Errs[v.EventID]; ok {
				return dupError{KindNetErr}
			}
			idx.Errs[v.EventID] = *v
		case *OpenConnectEntry:
			idx.OpenConnects[v.EventID] = *v
		case *OpenAcceptEntry:
			idx.OpenAccepts[v.EventID] = *v
		case *OpenReadEntry:
			idx.OpenReads[v.EventID] = *v
		case *OpenWriteEntry:
			// Both open-write kinds share the one key: which of two records
			// verifies an event's payload must never be a matter of order.
			if _, ok := idx.OpenWrites[v.EventID]; ok {
				return dupError{v.Kind()}
			}
			idx.OpenWrites[v.EventID] = *v
		case *OpenDatagramEntry:
			idx.OpenDatagrams[v.EventID] = *v
		case *EnvEntry:
			if _, ok := idx.Envs[v.EventID]; ok {
				return dupError{KindEnv}
			}
			idx.Envs[v.EventID] = *v
		case *NetSpanEntry:
			if _, ok := idx.NetSpans[v.EventID]; ok {
				return dupError{KindNetSpan}
			}
			idx.NetSpans[v.EventID] = *v
		default:
			return misplaced(e.Kind(), logNetwork)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// DatagramIndex is the replay-side view of a RecordedDatagramLog: the
// per-receive-event delivery record, plus how many times each datagram id was
// delivered to the application during the record phase. "A datagram entry
// that has been delivered multiple times during the record phase due to
// duplication is kept in the buffer until it is delivered to the same number
// of read requests as in the record phase" (§4.2.3).
type DatagramIndex struct {
	ByEvent    map[ids.NetworkEventID]DatagramRecvEntry
	Deliveries map[ids.DGNetworkEventID]int
}

// BuildDatagramIndex indexes the datagram log for replay.
func BuildDatagramIndex(l *Log) (*DatagramIndex, error) {
	idx := &DatagramIndex{
		ByEvent:    make(map[ids.NetworkEventID]DatagramRecvEntry),
		Deliveries: make(map[ids.DGNetworkEventID]int),
	}
	var scratch [kindMax]Entry
	err := l.walk(&scratch, func(e Entry) error {
		v, ok := e.(*DatagramRecvEntry)
		if !ok {
			return misplaced(e.Kind(), logDatagram)
		}
		if _, dup := idx.ByEvent[v.EventID]; dup {
			return dupError{KindDatagramRecv}
		}
		idx.ByEvent[v.EventID] = *v
		idx.Deliveries[v.Datagram]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}
