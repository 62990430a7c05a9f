package logcheck

import (
	"bytes"
	"cmp"
	"fmt"
	"iter"
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
	xa, err := tracelog.IndexSet(a)
	if err != nil {
		return nil, fmt.Errorf("logcheck: diff: left %w", err)
	}
	xb, err := tracelog.IndexSet(b)
	if err != nil {
		return nil, fmt.Errorf("logcheck: diff: right %w", err)
	}
	sa, sb := xa.Schedule, xb.Schedule

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
	if err := diffNetwork(rep, xa.Network, xb.Network); err != nil {
		return nil, err
	}
	diffKeyed(rep, "datagram-recv", xa.Datagram.ByEvent.All(), xb.Datagram.ByEvent.All(), byNetEvent, func(x, y tracelog.DatagramRecvEntry) bool {
		return x.Datagram == y.Datagram
	})
	return rep, nil
}

// diffSchedules reports where the two recorded orders depart: the order mode,
// then, stream by stream in stream order — the global counter first, then
// each registered object's — the first run that differs in each thread's
// runs, and the stream's notify and timed-wait records.
func diffSchedules(rep *DiffReport, a, b *tracelog.ScheduleIndex) {
	if a.OrderMode != b.OrderMode {
		rep.addf("order mode: %v vs %v", a.OrderMode, b.OrderMode)
	}
	in := make(map[tracelog.Stream]bool)
	for _, s := range slices.Concat(a.Streams, b.Streams) {
		in[s.ID] = true
	}
	for _, id := range slices.Sorted(maps.Keys(in)) {
		sa, sb := a.Stream(id), b.Stream(id)
		merge(inOrder(sa.Runs, cmp.Compare), inOrder(sb.Runs, cmp.Compare), cmp.Compare,
			func(tn ids.ThreadNum, ra []tracelog.Interval, _ bool, rb []tracelog.Interval, _ bool) {
				diffRuns(rep, fmt.Sprintf("%v, thread %d", id, tn), ra, rb)
			})
		diffKeyed(rep, "notify at", onStream(id, sa.Notifies), onStream(id, sb.Notifies), byPos, slices.Equal[[]ids.ThreadNum])
		diffKeyed(rep, "timed-wait at", onStream(id, sa.TimedWaits), onStream(id, sb.TimedWaits), byPos, same[tracelog.TimedWaitEntry])
	}
}

// pos is counter value n of stream id, printed the way the stream names it.
type pos struct {
	id tracelog.Stream
	n  ids.GCount
}

func (p pos) String() string { return p.id.At(p.n) }

func byPos(x, y pos) int { return cmp.Compare(x.n, y.n) }

// onStream yields m, a record family of stream id, in counter order.
func onStream[V any](id tracelog.Stream, m map[ids.GCount]V) iter.Seq2[pos, V] {
	return func(yield func(pos, V) bool) {
		for n, v := range inOrder(m, cmp.Compare) {
			if !yield(pos{id, n}, v) {
				return
			}
		}
	}
}

// inOrder yields m's entries in key order.
func inOrder[K comparable, V any](m map[K]V, order func(K, K) int) iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for _, k := range slices.SortedFunc(maps.Keys(m), order) {
			if !yield(k, m[k]) {
				return
			}
		}
	}
}

// merge walks two key-ordered sequences in step and calls visit once for
// every key either holds, in key order, with each side's value and whether
// that side holds the key.
func merge[K, V any](a, b iter.Seq2[K, V], order func(K, K) int, visit func(k K, va V, inA bool, vb V, inB bool)) {
	nextA, stopA := iter.Pull2(a)
	defer stopA()
	nextB, stopB := iter.Pull2(b)
	defer stopB()
	var none V
	ka, va, inA := nextA()
	kb, vb, inB := nextB()
	for inA || inB {
		switch {
		case !inB || inA && order(ka, kb) < 0:
			visit(ka, va, true, none, false)
			ka, va, inA = nextA()
		case !inA || order(ka, kb) > 0:
			visit(kb, none, false, vb, true)
			kb, vb, inB = nextB()
		default:
			visit(ka, va, true, vb, true)
			ka, va, inA = nextA()
			kb, vb, inB = nextB()
		}
	}
}

// diffRuns reports the first run at which one thread's two recorded runs on
// a stream depart, or that one list is a proper prefix of the other.
func diffRuns(rep *DiffReport, who string, ra, rb []tracelog.Interval) {
	for i := 0; i < min(len(ra), len(rb)); i++ {
		if ra[i] != rb[i] {
			rep.addf("%s: runs depart at run %d: [%d,%d] vs [%d,%d]", who, i, ra[i].First, ra[i].Last, rb[i].First, rb[i].Last)
			return
		}
	}
	if len(ra) != len(rb) {
		rep.addf("%s: %d vs %d runs (common prefix identical)", who, len(ra), len(rb))
	}
}

// diffNetwork compares the keyed network-log records.
func diffNetwork(rep *DiffReport, na, nb *tracelog.NetworkIndex) error {
	diffKeyed(rep, "accept", na.ServerSockets.All(), nb.ServerSockets.All(), byNetEvent, same[ids.ConnectionID])
	diffKeyed(rep, "read", na.Reads.All(), nb.Reads.All(), byNetEvent, same[tracelog.ReadEntry])
	diffKeyed(rep, "available", na.Availables.All(), nb.Availables.All(), byNetEvent, same[tracelog.AvailableEntry])
	diffKeyed(rep, "bind", na.Binds.All(), nb.Binds.All(), byNetEvent, same[tracelog.BindEntry])
	diffKeyed(rep, "net-err", na.Errs.All(), nb.Errs.All(), byNetEvent, same[tracelog.NetErrEntry])
	diffKeyed(rep, "env", na.Envs.All(), nb.Envs.All(), byNetEvent, same[tracelog.EnvEntry])
	diffKeyed(rep, "open-connect", na.OpenConnects.All(), nb.OpenConnects.All(), byNetEvent, same[tracelog.OpenConnectEntry])
	diffKeyed(rep, "open-accept", na.OpenAccepts.All(), nb.OpenAccepts.All(), byNetEvent, same[tracelog.OpenAcceptEntry])
	var errA, errB error
	diffKeyed(rep, "open-read", contents(na, na.OpenReads.All(), &errA), contents(nb, nb.OpenReads.All(), &errB), byNetEvent, sameContent)
	diffKeyed(rep, "open-write", na.OpenWrites.All(), nb.OpenWrites.All(), byNetEvent, same[tracelog.OpenWriteEntry])
	diffKeyed(rep, "open-datagram", contents(na, na.OpenDatagrams.All(), &errA), contents(nb, nb.OpenDatagrams.All(), &errB), byNetEvent, sameContent)
	if errA != nil {
		return fmt.Errorf("logcheck: diff: left network log: %w", errA)
	}
	if errB != nil {
		return fmt.Errorf("logcheck: diff: right network log: %w", errB)
	}
	return nil
}

// content is a content record as Diff compares it: an open read's or
// datagram's payload, a datagram's source, a read's end of stream.
type content struct {
	data []byte
	host string
	port uint16
	eof  bool
}

func sameContent(x, y content) bool {
	return x.eof == y.eof && x.host == y.host && x.port == y.port && bytes.Equal(x.data, y.data)
}

// contents yields the records of rows, a content table of idx, each copied
// out of the log through idx.Content. It stops at a record that cannot be
// read back and leaves why in *err.
func contents(idx *tracelog.NetworkIndex, rows iter.Seq2[ids.NetworkEventID, tracelog.ContentRow], err *error) iter.Seq2[ids.NetworkEventID, content] {
	return func(yield func(ids.NetworkEventID, content) bool) {
		for ev, row := range rows {
			c := content{eof: row.EOF}
			var cerr error
			if c.data, c.host, c.port, cerr = idx.Content(ev, row, nil); cerr != nil {
				*err = cerr
				return
			}
			if !yield(ev, c) {
				return
			}
		}
	}
}

func byNetEvent(x, y ids.NetworkEventID) int {
	return cmp.Or(cmp.Compare(x.Thread, y.Thread), cmp.Compare(x.Event, y.Event))
}

func same[V comparable](x, y V) bool { return x == y }

// diffKeyed compares two keyed record families, each given in key order:
// keys only on one side, and shared keys whose values differ.
func diffKeyed[K, V any](rep *DiffReport, what string, a, b iter.Seq2[K, V], order func(K, K) int, equal func(V, V) bool) {
	merge(a, b, order, func(k K, va V, inA bool, vb V, inB bool) {
		switch {
		case !inA:
			rep.addf("%s %v: only in right log", what, k)
		case !inB:
			rep.addf("%s %v: only in left log", what, k)
		case !equal(va, vb):
			rep.addf("%s %v: values differ", what, k)
		}
	})
}
