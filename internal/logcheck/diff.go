package logcheck

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// DiffReport lists the differences between two log sets, most significant
// first, capped so a wildly different pair stays readable.
type DiffReport struct {
	Lines []string
}

// Same reports whether no differences were found.
func (d *DiffReport) Same() bool { return len(d.Lines) == 0 }

const diffCap = 50

func (d *DiffReport) addf(format string, args ...any) {
	if len(d.Lines) < diffCap {
		d.Lines = append(d.Lines, fmt.Sprintf(format, args...))
	}
}

// Diff compares two recorded log sets — two recordings of "the same"
// program, or a recording against a re-recording after a fix — and reports
// where their schedules and network interactions depart. The first schedule
// difference is usually the root interleaving change; everything after it
// tends to be fallout.
func Diff(a, b *tracelog.Set) (*DiffReport, error) {
	rep := &DiffReport{}
	sa, err := tracelog.BuildScheduleIndex(a.Schedule)
	if err != nil {
		return nil, fmt.Errorf("logcheck: diff: left schedule: %w", err)
	}
	sb, err := tracelog.BuildScheduleIndex(b.Schedule)
	if err != nil {
		return nil, fmt.Errorf("logcheck: diff: right schedule: %w", err)
	}

	if sa.Meta.VM != sb.Meta.VM {
		rep.addf("vm id: %d vs %d", sa.Meta.VM, sb.Meta.VM)
	}
	if sa.Meta.World != sb.Meta.World {
		rep.addf("world: %v vs %v", sa.Meta.World, sb.Meta.World)
	}
	if sa.Meta.Threads != sb.Meta.Threads {
		rep.addf("thread count: %d vs %d", sa.Meta.Threads, sb.Meta.Threads)
	}
	if sa.Meta.FinalGC != sb.Meta.FinalGC {
		rep.addf("final counter: %d vs %d", sa.Meta.FinalGC, sb.Meta.FinalGC)
	}

	diffSchedules(rep, sa, sb)
	if err := diffNetwork(rep, a, b); err != nil {
		return nil, err
	}
	if err := diffDatagram(rep, a, b); err != nil {
		return nil, err
	}
	return rep, nil
}

// diffSchedules reports where the two recorded orders depart: the order mode,
// then, for every order stream — the global schedule thread by thread, each
// registered object's access order — the first run that differs, then the
// notify and timed-wait records keyed into those streams.
func diffSchedules(rep *DiffReport, a, b *tracelog.ScheduleIndex) {
	if a.OrderMode != b.OrderMode {
		rep.addf("order mode: %v vs %v", a.OrderMode, b.OrderMode)
	}
	for _, tn := range unionKeys(a.Intervals, b.Intervals, cmp.Compare[ids.ThreadNum]) {
		diffRuns(rep, fmt.Sprintf("thread %d: schedules", tn), "interval", a.Intervals[tn], b.Intervals[tn],
			func(iv tracelog.Interval) string { return fmt.Sprintf("[%d,%d]", iv.First, iv.Last) })
	}
	for _, obj := range unionKeys(a.ObjRuns, b.ObjRuns, cmp.Compare[ids.ObjectID]) {
		diffRuns(rep, fmt.Sprintf("%v: access orders", obj), "run", a.ObjRuns[obj], b.ObjRuns[obj],
			func(r tracelog.ObjRun) string { return fmt.Sprintf("thread %d [%d,%d]", r.Thread, r.First, r.Last) })
	}
	byObjEvent := func(x, y tracelog.ObjEvent) int {
		return cmp.Or(cmp.Compare(x.Obj, y.Obj), cmp.Compare(x.Seq, y.Seq))
	}
	diffKeyed(rep, "notify at counter", a.Notifies, b.Notifies, cmp.Compare[ids.GCount], slices.Equal[[]ids.ThreadNum])
	diffKeyed(rep, "timed-wait at counter", a.TimedWaits, b.TimedWaits, cmp.Compare[ids.GCount], same[tracelog.TimedWaitEntry])
	diffKeyed(rep, "obj-notify at", a.ObjNotifies, b.ObjNotifies, byObjEvent, slices.Equal[[]ids.ThreadNum])
	diffKeyed(rep, "obj-timed-wait at", a.ObjTimedWaits, b.ObjTimedWaits, byObjEvent, same[tracelog.ObjTimedWait])
}

// unionKeys returns the keys of either map, sorted by order.
func unionKeys[K comparable, V any](a, b map[K]V, order func(K, K) int) []K {
	keys := slices.Collect(maps.Keys(a))
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, order)
	return keys
}

// diffRuns reports the first run at which one stream's two recorded orders
// depart, or that one is a proper prefix of the other.
func diffRuns[R comparable](rep *DiffReport, who, what string, ra, rb []R, show func(R) string) {
	for i := 0; i < min(len(ra), len(rb)); i++ {
		if ra[i] != rb[i] {
			rep.addf("%s depart at %s %d: %s vs %s", who, what, i, show(ra[i]), show(rb[i]))
			return
		}
	}
	if len(ra) != len(rb) {
		rep.addf("%s: %d vs %d %ss (common prefix identical)", who, len(ra), len(rb), what)
	}
}

// diffNetwork compares the keyed network-log records.
func diffNetwork(rep *DiffReport, a, b *tracelog.Set) error {
	na, err := tracelog.BuildNetworkIndex(a.Network)
	if err != nil {
		return fmt.Errorf("logcheck: diff: left network log: %w", err)
	}
	nb, err := tracelog.BuildNetworkIndex(b.Network)
	if err != nil {
		return fmt.Errorf("logcheck: diff: right network log: %w", err)
	}

	diffKeyed(rep, "accept", na.ServerSockets, nb.ServerSockets, byNetEvent, same[ids.ConnectionID])
	diffKeyed(rep, "read", na.Reads, nb.Reads, byNetEvent, same[tracelog.ReadEntry])
	diffKeyed(rep, "available", na.Availables, nb.Availables, byNetEvent, same[tracelog.AvailableEntry])
	diffKeyed(rep, "bind", na.Binds, nb.Binds, byNetEvent, same[tracelog.BindEntry])
	diffKeyed(rep, "net-err", na.Errs, nb.Errs, byNetEvent, same[tracelog.NetErrEntry])
	diffKeyed(rep, "env", na.Envs, nb.Envs, byNetEvent, same[tracelog.EnvEntry])
	diffKeyed(rep, "open-connect", na.OpenConnects, nb.OpenConnects, byNetEvent, same[tracelog.OpenConnectEntry])
	diffKeyed(rep, "open-accept", na.OpenAccepts, nb.OpenAccepts, byNetEvent, same[tracelog.OpenAcceptEntry])
	diffKeyed(rep, "open-read", na.OpenReads, nb.OpenReads, byNetEvent, func(x, y tracelog.OpenReadEntry) bool {
		return x.EOF == y.EOF && bytes.Equal(x.Data, y.Data)
	})
	diffKeyed(rep, "open-write", na.OpenWrites, nb.OpenWrites, byNetEvent, same[tracelog.OpenWriteEntry])
	diffKeyed(rep, "open-datagram", na.OpenDatagrams, nb.OpenDatagrams, byNetEvent, func(x, y tracelog.OpenDatagramEntry) bool {
		return x.SourceHost == y.SourceHost && x.SourcePort == y.SourcePort && bytes.Equal(x.Data, y.Data)
	})
	return nil
}

func diffDatagram(rep *DiffReport, a, b *tracelog.Set) error {
	da, err := tracelog.BuildDatagramIndex(a.Datagram)
	if err != nil {
		return fmt.Errorf("logcheck: diff: left datagram log: %w", err)
	}
	db, err := tracelog.BuildDatagramIndex(b.Datagram)
	if err != nil {
		return fmt.Errorf("logcheck: diff: right datagram log: %w", err)
	}
	diffKeyed(rep, "datagram-recv", da.ByEvent, db.ByEvent, byNetEvent, func(x, y tracelog.DatagramRecvEntry) bool {
		return x.Datagram == y.Datagram
	})
	return nil
}

func byNetEvent(x, y ids.NetworkEventID) int {
	return cmp.Or(cmp.Compare(x.Thread, y.Thread), cmp.Compare(x.Event, y.Event))
}

func same[V comparable](x, y V) bool { return x == y }

// diffKeyed compares two keyed record families: keys only on one side, and
// shared keys whose values differ.
func diffKeyed[K comparable, V any](rep *DiffReport, what string, a, b map[K]V, order func(K, K) int, equal func(V, V) bool) {
	for _, k := range unionKeys(a, b, order) {
		va, inA := a[k]
		vb, inB := b[k]
		switch {
		case !inA:
			rep.addf("%s %v: only in right log", what, k)
		case !inB:
			rep.addf("%s %v: only in left log", what, k)
		case !equal(va, vb):
			rep.addf("%s %v: values differ", what, k)
		}
	}
}
