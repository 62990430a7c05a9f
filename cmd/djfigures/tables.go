package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/ids"
)

// Row is one line of a Table 1 / Table 2 style table, in the paper's columns.
type Row struct {
	Threads        int
	CriticalEvents uint64
	NetworkEvents  uint64
	LogBytes       int
	RecOvhdPct     float64
}

// Table is one of the paper's result tables (e.g. "Table 1(a) Server").
type Table struct {
	Name string
	Rows []Row
}

// Print renders the table in the paper's column layout.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Name)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "#threads\t#critical events\t#nw events\tlog size(bytes)\trec ovhd(%)\t")
	for _, r := range t.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.2f\t\n",
			r.Threads, r.CriticalEvents, r.NetworkEvents, r.LogBytes, r.RecOvhdPct)
	}
	tw.Flush()
}

// row is the table line of one recorded component at n threads, whose
// recording took rec against a baseline of base.
func row(n int, cs ComponentStats, base, rec time.Duration) Row {
	return Row{
		Threads:        n,
		CriticalEvents: cs.CriticalEvents,
		NetworkEvents:  cs.NetworkEvents,
		LogBytes:       cs.LogBytes,
		RecOvhdPct:     ovhd(base, rec),
	}
}

// DefaultThreadCounts is the paper's thread-count sweep.
var DefaultThreadCounts = []int{2, 4, 8, 16, 32}

// measure runs fn once as warm-up, then reps timed times, and returns the
// minimum duration — the standard low-noise estimator for wall-time
// comparisons.
func measure(reps int, fn func() (RunResult, error)) (RunResult, time.Duration, error) {
	if _, err := fn(); err != nil { // warm-up: heap growth, scheduler state
		return RunResult{}, 0, err
	}
	var best RunResult
	min := time.Duration(0)
	for i := 0; i < reps; i++ {
		res, err := fn()
		if err != nil {
			return RunResult{}, 0, err
		}
		if min == 0 || res.Duration < min {
			min = res.Duration
		}
		best = res
	}
	return best, min, nil
}

// ovhd computes the percentage increase of rec over base.
func ovhd(base, rec time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return (float64(rec) - float64(base)) / float64(base) * 100
}

// GenerateTable1 regenerates the paper's Table 1 (closed world): server (a)
// and client (b) statistics for each thread count. reps controls timing
// repetitions (minimum is reported). The recording of the first thread count
// is replayed, and a replay that departs from it is an errDiverged.
func GenerateTable1(threadCounts []int, reps int, progress func(string)) (server, client Table, err error) {
	server.Name = "Table 1(a). Closed-world results: Server"
	client.Name = "Table 1(b). Closed-world results: Client"
	for i, n := range threadCounts {
		p := ClosedParams(n)
		report(progress, "closed world, %d threads: baseline", n)
		_, baseDur, err := measure(reps, func() (RunResult, error) { return RunBaseline(p) })
		if err != nil {
			return server, client, err
		}
		report(progress, "closed world, %d threads: record", n)
		rec, recDur, err := measure(reps, func() (RunResult, error) {
			return RunClosed(p, ids.Record, nil, nil)
		})
		if err != nil {
			return server, client, err
		}
		server.Rows = append(server.Rows, row(n, rec.Server, baseDur, recDur))
		client.Rows = append(client.Rows, row(n, rec.Client, baseDur, recDur))
		if i == 0 {
			report(progress, "closed world, %d threads: replay", n)
			if err := Replay(p, rec); err != nil {
				return server, client, err
			}
		}
	}
	return server, client, nil
}

// GenerateTable2 regenerates the paper's Table 2 (open world): each
// component is measured in the run where it is the sole DJVM. Both
// recordings of the first thread count are replayed, as in GenerateTable1.
func GenerateTable2(threadCounts []int, reps int, progress func(string)) (server, client Table, err error) {
	server.Name = "Table 2(a). Open-world results: Server"
	client.Name = "Table 2(b). Open-world results: Client"
	for i, n := range threadCounts {
		p := OpenParams(n)
		report(progress, "open world, %d threads: baseline", n)
		_, baseDur, err := measure(reps, func() (RunResult, error) { return RunBaseline(p) })
		if err != nil {
			return server, client, err
		}
		for _, djvmServer := range []bool{true, false} {
			report(progress, "open world, %d threads: record (DJVM server=%v)", n, djvmServer)
			rec, dur, err := measure(reps, func() (RunResult, error) {
				return RunOpen(p, djvmServer, ids.Record, nil)
			})
			if err != nil {
				return server, client, err
			}
			if djvmServer {
				server.Rows = append(server.Rows, row(n, rec.Server, baseDur, dur))
			} else {
				client.Rows = append(client.Rows, row(n, rec.Client, baseDur, dur))
			}
			if i == 0 {
				report(progress, "open world, %d threads: replay (DJVM server=%v)", n, djvmServer)
				if err := Replay(p, rec); err != nil {
					return server, client, err
				}
			}
		}
	}
	return server, client, nil
}

func report(progress func(string), format string, args ...any) {
	if progress != nil {
		progress(fmt.Sprintf(format, args...))
	}
}

// Replay replays rec, a recording of p, and returns errDiverged unless every
// component that recorded reproduced its recorded outcome. In the closed
// world both components recorded; in the open world only the DJVM did, and
// it replays without its peer (§5).
func Replay(p Params, rec RunResult) error {
	var rep RunResult
	var err error
	switch {
	case rec.ServerLogs != nil && rec.ClientLogs != nil:
		rep, err = RunClosed(p, ids.Replay, rec.ServerLogs, rec.ClientLogs)
	case rec.ServerLogs != nil:
		rep, err = RunOpen(p, true, ids.Replay, rec.ServerLogs)
	default:
		rep, err = RunOpen(p, false, ids.Replay, rec.ClientLogs)
	}
	if err != nil {
		return err
	}
	if rec.ServerLogs != nil && rep.Server.Outcome != rec.Server.Outcome ||
		rec.ClientLogs != nil && rep.Client.Outcome != rec.Client.Outcome {
		return fmt.Errorf("%w at %d threads: record server{%v} client{%v}, replay server{%v} client{%v}",
			errDiverged, p.Threads, rec.Server.Outcome, rec.Client.Outcome, rep.Server.Outcome, rep.Client.Outcome)
	}
	return nil
}

// LogSizeRow is one point of the message-size sweep: the size of the
// client's content logs (see contentLogBytes) in each world.
type LogSizeRow struct {
	MsgBytes      int
	ClosedLogSize int
	OpenLogSize   int
}

// contentLogBytes is the size of a recorded client's network and datagram
// logs: everything but the schedule. The schedule log grows with how often
// the counter changes hands, which is a property of the run's timing, not of
// the message size.
func contentLogBytes(r RunResult) int {
	return r.ClientLogs.Network.Size() + r.ClientLogs.Datagram.Size()
}

// GenerateLogSizeSweep measures, at a fixed thread count, how the client's
// content logs respond to message size in each world — the §6 observation
// that "increasing the size of messages sent to the client would not change
// the size of the closed-world log but would cause a consequent increase in
// the open-world log".
func GenerateLogSizeSweep(threads int, msgSizes []int) ([]LogSizeRow, error) {
	var rows []LogSizeRow
	for _, sz := range msgSizes {
		p := OpenParams(threads)
		p.MsgBytes = sz
		open, err := RunOpen(p, false, ids.Record, nil)
		if err != nil {
			return nil, fmt.Errorf("open sweep msg=%d: %w", sz, err)
		}
		pc := ClosedParams(threads)
		pc.BaseSharedIters = p.BaseSharedIters // equal event load isolates the content term
		pc.PerThreadSharedIters = p.PerThreadSharedIters
		pc.MsgBytes = sz
		closed, err := RunClosed(pc, ids.Record, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("closed sweep msg=%d: %w", sz, err)
		}
		rows = append(rows, LogSizeRow{
			MsgBytes:      sz,
			ClosedLogSize: contentLogBytes(closed),
			OpenLogSize:   contentLogBytes(open),
		})
	}
	return rows, nil
}

// logSizes are the message sizes of `djfigures -table logsize`.
var logSizes = []int{64, 256, 1024, 4096, 16384}

// table prints the paper's table which ("1", "2" or "logsize") for the
// given thread counts, with progress on progress.
func table(w, progress io.Writer, which string, threads []int, reps int) error {
	say := func(msg string) { fmt.Fprintf(progress, "  ... %s\n", msg) }
	var server, client Table
	var err error
	switch which {
	case "1":
		server, client, err = GenerateTable1(threads, reps, say)
	case "2":
		server, client, err = GenerateTable2(threads, reps, say)
	default:
		rows, err := GenerateLogSizeSweep(threads[0], logSizes)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Client content log (network + datagram) vs message size (bytes), %d threads, equal event load:\n", threads[0])
		fmt.Fprintln(w, "  msg bytes  closed-world log  open-world log")
		for _, r := range rows {
			fmt.Fprintf(w, "  %9d  %16d  %14d\n", r.MsgBytes, r.ClosedLogSize, r.OpenLogSize)
		}
		return nil
	}
	if err != nil {
		return err
	}
	server.Print(w)
	fmt.Fprintln(w)
	client.Print(w)
	fmt.Fprintf(w, "\nReplay of the %d-thread recordings: identical\n", threads[0])
	return nil
}
