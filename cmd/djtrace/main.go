// djtrace inspects DJVM logs saved with Node.SaveLogs / tracelog.Set.Save:
//
//	djtrace <logdir>                       # summary + full dump
//	djtrace -summary <logdir>              # summary only
//	djtrace -json <logdir>                 # machine-readable per-log summary
//	djtrace -entries <logdir>              # stream every record as NDJSON
//	djtrace -check <logdir>...             # validate log sets (cross-VM when several)
//	djtrace -perfetto out.json <logdir>... # export the causal graph as Chrome trace JSON
//	djtrace -critpath <logdir>...          # replay critical-path / stall analysis
//	djtrace -why-diverged vm:gc [-k n] <logdir>...  # causal history of a divergence point
//	djtrace -mkfixture <outdir>            # record a small traced kvapp run (CI fixture)
//	djtrace -verify-perfetto <file>        # validate a -perfetto export
//
// It renders the schedule log (VM meta, logical schedule intervals, notify
// payloads, checkpoints), the NetworkLogFile, and the RecordedDatagramLog in
// human-readable form; -json emits byte sizes, per-kind record counts and
// interval/event totals as JSON; -check runs the logcheck validator instead.
// The causal modes (-perfetto, -critpath, -why-diverged) reconstruct the
// cross-VM happens-before graph from one log directory per VM; record with
// causal tracing enabled to get handshake and stream edges.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/causal"
	"repro/internal/ids"
	"repro/internal/kvapp"
	"repro/internal/logcheck"
	"repro/internal/tracelog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: djtrace [-summary|-json|-entries] <logdir>
       djtrace -check <logdir>...
       djtrace -perfetto out.json <logdir>...
       djtrace -critpath <logdir>...
       djtrace -why-diverged vm:gc [-k n] <logdir>...
       djtrace -mkfixture <outdir>
       djtrace -verify-perfetto <file>`

// run is the whole command: exit 0 on success, 1 on a failure (unreadable or
// inconsistent logs, a failed export), 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	summaryOnly := fs.Bool("summary", false, "print only per-log summaries")
	asJSON := fs.Bool("json", false, "emit per-log summaries as JSON")
	entries := fs.Bool("entries", false, "stream every record as NDJSON")
	check := fs.Bool("check", false, "validate the log set(s) instead of dumping")
	perfetto := fs.String("perfetto", "", "write the causal graph as Chrome trace-event JSON to `file`")
	critpath := fs.Bool("critpath", false, "print the replay critical-path / stall report")
	whyDiverged := fs.String("why-diverged", "", "print the causal history of divergence point `vm:gc`")
	k := fs.Int("k", 10, "how many causally-preceding event ranges -why-diverged prints")
	mkfixture := fs.String("mkfixture", "", "record a small traced kvapp run into `dir` (one subdir per VM)")
	verifyPerfetto := fs.String("verify-perfetto", "", "validate a -perfetto export `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func() int {
		fmt.Fprintln(stderr, usageText)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "djtrace:", err)
		return 1
	}

	causalMode := *perfetto != "" || *critpath || *whyDiverged != ""
	switch {
	case *mkfixture != "":
		if err := makeFixture(stdout, *mkfixture); err != nil {
			return fail(err)
		}
		return 0
	case *verifyPerfetto != "":
		if err := verifyExport(stdout, *verifyPerfetto); err != nil {
			return fail(err)
		}
		return 0
	case fs.NArg() < 1 || (!causalMode && !*check && fs.NArg() != 1):
		return usage()
	}

	sets, err := loadSets(fs.Args())
	if err != nil {
		return fail(err)
	}
	switch {
	case causalMode:
		g, err := causal.Build(sets)
		if err != nil {
			return fail(err)
		}
		switch {
		case *perfetto != "":
			err = exportPerfetto(stdout, stderr, *perfetto, g)
		case *critpath:
			causal.CriticalPath(g).WriteReport(stdout)
		default:
			err = whyDivergedReport(stdout, g, *whyDiverged, *k)
		}
	case *check:
		rep := logcheck.CheckWorld(sets)
		if !rep.OK() {
			for _, f := range rep.Findings {
				fmt.Fprintln(stdout, f)
			}
			return 1
		}
		fmt.Fprintf(stdout, "ok: %d log set(s) consistent\n", len(sets))
	case *asJSON:
		err = emitJSON(stdout, sets[0])
	case *entries:
		err = emitEntries(stdout, sets[0])
	default:
		for _, f := range logFiles(sets[0]) {
			if err = dump(stdout, f.name+".log", f.log, *summaryOnly); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

func whyDivergedReport(w io.Writer, g *causal.Graph, point string, k int) error {
	var vm ids.DJVMID
	var gc ids.GCount
	if _, err := fmt.Sscanf(point, "%d:%d", &vm, &gc); err != nil {
		return fmt.Errorf("-why-diverged wants vm:gc, got %q", point)
	}
	causes, err := causal.WhyDiverged(g, vm, gc, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "last %d causally-preceding recorded event ranges before vm %d counter %d (most recent first):\n",
		len(causes), vm, gc)
	for _, c := range causes {
		fmt.Fprintf(w, "  vm %-3d thread %-3d gc [%d,%d]  %d hop(s) away via %v\n",
			c.VM, c.Thread, c.First, c.Last, c.Dist, c.Via)
	}
	return nil
}

func loadSets(dirs []string) ([]*tracelog.Set, error) {
	var sets []*tracelog.Set
	for _, dir := range dirs {
		set, err := tracelog.LoadSet(dir)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// namedLog is one of a set's three logs with the name the output calls it.
type namedLog struct {
	name string
	log  *tracelog.Log
}

func logFiles(set *tracelog.Set) []namedLog {
	return []namedLog{{"schedule", set.Schedule}, {"network", set.Network}, {"datagram", set.Datagram}}
}

// logSummary is the -json shape for one log file.
type logSummary struct {
	Bytes   int `json:"bytes"`
	Records int `json:"records"`
	// Kinds maps record-kind name to count.
	Kinds map[string]int `json:"kinds"`
	// Intervals and IntervalEvents summarize the logical schedule: the number
	// of interval records and the total critical events they cover. Zero for
	// the network and datagram logs.
	Intervals      int    `json:"intervals,omitempty"`
	IntervalEvents uint64 `json:"interval_events,omitempty"`
}

// setSummary is the top-level -json shape.
type setSummary struct {
	Schedule   logSummary `json:"schedule"`
	Network    logSummary `json:"network"`
	Datagram   logSummary `json:"datagram"`
	TotalBytes int        `json:"total_bytes"`
}

func emitJSON(w io.Writer, set *tracelog.Set) error {
	var out setSummary
	summaries := [...]*logSummary{&out.Schedule, &out.Network, &out.Datagram}
	for i, f := range logFiles(set) {
		dst := summaries[i]
		dst.Bytes = f.log.Size()
		dst.Kinds = map[string]int{}
		// Stream the walk: the counters need one record at a time, never the
		// whole decoded slice.
		err := f.log.Each(func(e tracelog.Entry) error {
			dst.Records++
			dst.Kinds[e.Kind().String()]++
			if iv, ok := e.(*tracelog.Interval); ok {
				dst.Intervals++
				dst.IntervalEvents += uint64(iv.Last-iv.First) + 1
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	out.TotalBytes = set.TotalSize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// entryLine is the -entries NDJSON shape: one line per record, emitted as
// it is decoded.
type entryLine struct {
	Log   string `json:"log"`
	Index int    `json:"i"`
	Kind  string `json:"kind"`
	Desc  string `json:"desc"`
}

func emitEntries(w io.Writer, set *tracelog.Set) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range logFiles(set) {
		i := 0
		err := f.log.Each(func(e tracelog.Entry) error {
			line := entryLine{Log: f.name, Index: i, Kind: e.Kind().String(), Desc: render(e)}
			i++
			return enc.Encode(line)
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func dump(out io.Writer, name string, l *tracelog.Log, summaryOnly bool) error {
	byKind := map[tracelog.Kind]int{}
	records := 0
	if err := l.Each(func(e tracelog.Entry) error {
		byKind[e.Kind()]++
		records++
		return nil
	}); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "== %s: %d bytes, %d records ==\n", name, l.Size(), records)
	for k := tracelog.Kind(1); k < tracelog.Kind(32); k++ {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(w, "   %-14v %6d\n", k, n)
		}
	}
	if !summaryOnly {
		i := 0
		if err := l.Each(func(e tracelog.Entry) error {
			_, err := fmt.Fprintf(w, "  %6d  %s\n", i, render(e))
			i++
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	fmt.Fprintln(w)
	return w.Flush()
}

func render(e tracelog.Entry) string {
	switch v := e.(type) {
	case *tracelog.VMMeta:
		return fmt.Sprintf("vm-meta       vm=%d world=%v threads=%d finalGC=%d",
			v.VM, v.World, v.Threads, v.FinalGC)
	case *tracelog.Interval:
		return fmt.Sprintf("interval      thread=%d [%d,%d] (%d events)",
			v.Thread, v.First, v.Last, uint64(v.Last-v.First)+1)
	case *tracelog.Notify:
		return fmt.Sprintf("notify        gc=%d woken=%v", v.GC, v.Woken)
	case *tracelog.CheckpointEntry:
		return fmt.Sprintf("checkpoint    gc=%d nextThread=%d taker=%d state=%dB",
			v.GC, v.NextThread, v.TakerThread, len(v.State))
	case *tracelog.TimedWaitEntry:
		return fmt.Sprintf("timed-wait    gc=%d check=%v timedOut=%v", v.GC, v.Check, v.TimedOut)
	case *tracelog.TimestampEntry:
		return fmt.Sprintf("timestamp     gc=%d wall=%d", v.GC, v.Wall)
	case *tracelog.ServerSocketEntry:
		return fmt.Sprintf("server-socket serverId=%v clientId=%v", v.ServerID, v.ClientID)
	case *tracelog.ReadEntry:
		return fmt.Sprintf("read          %v n=%d eof=%v", v.EventID, v.N, v.EOF)
	case *tracelog.AvailableEntry:
		return fmt.Sprintf("available     %v n=%d", v.EventID, v.N)
	case *tracelog.BindEntry:
		return fmt.Sprintf("bind          %v port=%d", v.EventID, v.Port)
	case *tracelog.NetErrEntry:
		return fmt.Sprintf("net-err       %v op=%s msg=%q", v.EventID, v.Op, v.Msg)
	case *tracelog.NetSpanEntry:
		return fmt.Sprintf("net-span      %v gc=%d op=%s conn=%v off=%d len=%d",
			v.EventID, v.GC, tracelog.NetOpName(v.Op), v.Conn, v.Offset, v.Len)
	case *tracelog.DatagramRecvEntry:
		return fmt.Sprintf("datagram-recv %v recvGC=%d datagram=%v", v.EventID, v.ReceiverGC, v.Datagram)
	case *tracelog.OpenConnectEntry:
		return fmt.Sprintf("open-connect  %v local=:%d remote=%s:%d",
			v.EventID, v.LocalPort, v.RemoteHost, v.RemotePort)
	case *tracelog.OpenAcceptEntry:
		return fmt.Sprintf("open-accept   %v remote=%s:%d", v.EventID, v.RemoteHost, v.RemotePort)
	case *tracelog.OpenReadEntry:
		return fmt.Sprintf("open-read     %v %dB eof=%v", v.EventID, len(v.Data), v.EOF)
	case *tracelog.OpenWriteEntry:
		// "open-write" is an FNV-1a record of a log from before PR 19,
		// "open-write-wide" what recordings hold since.
		return fmt.Sprintf("%-13v %v len=%d sum=%016x", v.Kind(), v.EventID, v.Len, v.Sum)
	case *tracelog.OpenDatagramEntry:
		return fmt.Sprintf("open-datagram %v src=%s:%d %dB",
			v.EventID, v.SourceHost, v.SourcePort, len(v.Data))
	case *tracelog.EnvEntry:
		return fmt.Sprintf("env           %v op=%s value=%d", v.EventID, v.Op, v.Value)
	case *tracelog.OrderModeEntry:
		return fmt.Sprintf("order-mode    %v", v.Mode)
	case *tracelog.ObjRun:
		return fmt.Sprintf("obj-run       %v thread=%d [%d,%d] (%d accesses)",
			v.Obj, v.Thread, v.First, v.Last, uint64(v.Last-v.First)+1)
	case *tracelog.ObjNotify:
		return fmt.Sprintf("obj-notify    %v seq=%d woken=%v", v.Obj, v.Seq, v.Woken)
	case *tracelog.ObjTimedWait:
		return fmt.Sprintf("obj-timed-wait %v seq=%d check=%v timedOut=%v",
			v.Obj, v.Seq, v.Check, v.TimedOut)
	case *tracelog.OpenInterval:
		return fmt.Sprintf("open-interval thread=%d [%d,%d] (%d events so far)",
			v.Thread, v.First, v.Last, uint64(v.Last-v.First)+1)
	case *tracelog.TruncationEntry:
		return fmt.Sprintf("truncation    baseGC=%d", v.BaseGC)
	case *tracelog.ChaosPlanEntry:
		return fmt.Sprintf("chaos-plan    seed=%d spec=%dB", v.Seed, len(v.Spec))
	case *tracelog.GroupEpochEntry:
		members := make([]string, len(v.Members))
		for i, m := range v.Members {
			members[i] = fmt.Sprintf("vm%d@%d", m.VM, m.AnchorGC)
		}
		return fmt.Sprintf("group-epoch   epoch=%d gc=%d members=%v", v.Epoch, v.GC, members)
	default:
		return fmt.Sprintf("%v", e.Kind())
	}
}

// exportPerfetto writes the graph to path and enforces the correlation
// invariant: one message flow arrow per recorded cross-VM message.
func exportPerfetto(stdout, stderr io.Writer, path string, g *causal.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	stats, err := causal.WritePerfetto(f, g)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	msgFlows := stats.FlowsByKind[causal.EdgeHandshake] +
		stats.FlowsByKind[causal.EdgeStream] + stats.FlowsByKind[causal.EdgeDatagram]
	fmt.Fprintf(stdout, "wrote %s: %d slices, %d flows (%d message, %d notify) for %d cross-VM messages\n",
		path, stats.Slices, stats.Flows, msgFlows, stats.FlowsByKind[causal.EdgeNotify], stats.Messages)
	if s := g.Stats; s.UnmatchedHandshakes+s.UnmatchedWrites+s.DanglingDatagrams > 0 {
		fmt.Fprintf(stderr,
			"warning: uncorrelated traffic: %d handshakes, %d writes, %d datagrams (recorded without -causal tracing?)\n",
			s.UnmatchedHandshakes, s.UnmatchedWrites, s.DanglingDatagrams)
	}
	if msgFlows != stats.Messages {
		return fmt.Errorf("export emitted %d message flows for %d cross-VM messages", msgFlows, stats.Messages)
	}
	return nil
}

// makeFixture records a small two-client kvapp run with causal tracing on and
// saves one log directory per VM: the input of CI's trace-smoke job.
func makeFixture(stdout io.Writer, dir string) error {
	_, logs, err := kvapp.Run(kvapp.Config{
		Replicas: 1, Clients: 2, OpsPerClient: 5,
		Mode: ids.Record, Seed: 42, Chaos: kvapp.DefaultChaos(),
		CausalTrace: true,
	})
	if err != nil {
		return err
	}
	for _, set := range logs {
		sched, err := tracelog.BuildScheduleIndex(set.Schedule)
		if err != nil {
			return err
		}
		sub := filepath.Join(dir, fmt.Sprintf("vm%d", sched.Meta.VM))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return err
		}
		if err := set.Save(sub); err != nil {
			return err
		}
		fmt.Fprintln(stdout, sub)
	}
	return nil
}

// verifyExport re-parses a -perfetto export and checks the structural
// invariants a viewer depends on: valid JSON, every flow start paired with a
// finish of the same category, and at least one cross-VM message flow.
func verifyExport(stdout io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
			ID  string `json:"id"`
			BP  string `json:"bp"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid trace-event JSON: %w", path, err)
	}
	msgCats := map[string]bool{"handshake": true, "stream": true, "datagram": true}
	starts := map[string]string{}
	finishes := map[string]string{}
	slices, msgFlows := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
		case "s":
			if _, dup := starts[ev.ID]; dup {
				return fmt.Errorf("%s: duplicate flow start id %q", path, ev.ID)
			}
			starts[ev.ID] = ev.Cat
			if msgCats[ev.Cat] {
				msgFlows++
			}
		case "f":
			if ev.BP != "e" {
				return fmt.Errorf("%s: flow finish %q has bp=%q, want \"e\"", path, ev.ID, ev.BP)
			}
			finishes[ev.ID] = ev.Cat
		}
	}
	for id, cat := range starts {
		if fcat, ok := finishes[id]; !ok || fcat != cat {
			return fmt.Errorf("%s: flow %q start (%s) has no matching finish", path, id, cat)
		}
	}
	for id := range finishes {
		if _, ok := starts[id]; !ok {
			return fmt.Errorf("%s: flow %q finish has no start", path, id)
		}
	}
	if slices == 0 {
		return fmt.Errorf("%s: no slices", path)
	}
	if msgFlows == 0 {
		return fmt.Errorf("%s: no cross-VM message flows", path)
	}
	fmt.Fprintf(stdout, "ok: %s: %d slices, %d flows (%d cross-VM message flows)\n",
		path, slices, len(starts), msgFlows)
	return nil
}
