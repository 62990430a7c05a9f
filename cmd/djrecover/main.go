// djrecover salvages the write-ahead trace logs a crashed node or group left
// behind (see Node.EnableWAL / dejavu.Recover):
//
//	djrecover <file.wal | dir>          # scan, repair, validate, report
//	djrecover -json <file.wal | dir>    # machine-readable report
//	djrecover -o <out> <file.wal | dir> # also save each recovered set to out/<member>
//	djrecover -mkfixture <file.wal>     # write a deliberately torn fixture (CI)
//
// The input is one WAL or a directory of them, one per group member; a file
// is a group of one. Every member is salvaged and validated on its own and
// gets one report, and -o saves member m.wal's recovered set under out/m.
// The salvaged sets then go to the recovery-line solver. When some member
// carries coordinated-checkpoint epochs, the report ends with the latest
// complete line — each member's restart anchor — and why newer epochs were
// demoted (torn stamps, lost anchor checkpoints, orphan messages).
//
// Exit status: 0 when every WAL salvaged to an internally consistent set (or
// the fixture was written), 1 when one did not salvage or did not validate, 2
// on a usage error (including a directory with no *.wal in it).
//
// The tool truncates nothing on disk: it reads each WAL, discards the torn or
// corrupt tail in memory, repairs the salvaged records to the largest
// replayable prefix, and reports what survived. A recovered set replays
// deterministically up to the crash point with Config.StopAtLogEnd.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/ids"
	"repro/internal/logcheck"
	"repro/internal/recline"
	"repro/internal/tracelog"
)

const usage = "usage: djrecover [-json] [-o dir] <file.wal | dir> | djrecover -mkfixture <file.wal>"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djrecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the recovery report as JSON")
	outDir := fs.String("o", "", "save each member's recovered log set under this directory")
	fixture := fs.String("mkfixture", "", "write a torn-tail WAL fixture to this path and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *fixture != "" && fs.NArg() == 0:
		if err := writeFixture(*fixture); err != nil {
			fmt.Fprintln(stderr, "djrecover:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote torn fixture %s\n", *fixture)
		return 0
	case *fixture == "" && fs.NArg() == 1:
		return salvage(fs.Arg(0), *asJSON, *outDir, stdout, stderr)
	}
	fmt.Fprintln(stderr, usage)
	return 2
}

// member is one WAL's salvage outcome.
type member struct {
	Path     string                   `json:"path"`
	Report   *tracelog.RecoveryReport `json:"report,omitempty"`
	Findings []string                 `json:"findings,omitempty"`
	Saved    string                   `json:"saved,omitempty"`
	OK       bool                     `json:"ok"`
	Error    string                   `json:"error,omitempty"`
}

// line summarizes the solved recovery line.
type line struct {
	Epoch     uint64            `json:"epoch"`
	Anchors   map[string]uint64 `json:"anchors"`
	Fallbacks int               `json:"fallbacks"`
	Stable    int               `json:"stable_messages"`
	InFlight  int               `json:"in_flight_messages"`
	Demoted   []string          `json:"demoted,omitempty"`
}

// report is the whole output, and the -json shape.
type report struct {
	Input   string   `json:"input"`
	Members []member `json:"members"`
	Line    *line    `json:"line,omitempty"`
	NoLine  string   `json:"no_line,omitempty"`
	OK      bool     `json:"ok"`
}

// salvage salvages and validates every member WAL of input — the file
// itself, or each *.wal in the directory — solves the recovery line across
// the salvaged sets, reports, and returns the process exit code.
func salvage(input string, asJSON bool, outDir string, stdout, stderr io.Writer) int {
	paths := []string{input}
	if fi, err := os.Stat(input); err == nil && fi.IsDir() {
		paths, _ = filepath.Glob(filepath.Join(input, "*.wal"))
		if len(paths) == 0 {
			fmt.Fprintf(stderr, "djrecover: no *.wal files under %s\n", input)
			return 2
		}
		sort.Strings(paths)
	}

	out := report{Input: input, OK: true}
	var sets []*tracelog.Set
	for _, p := range paths {
		set, rep, err := tracelog.RecoverFile(p)
		m := member{Path: p, Report: rep}
		if err != nil {
			m.Error = err.Error()
			out.OK = false
			out.Members = append(out.Members, m)
			continue
		}
		check := logcheck.CheckSet(set)
		m.OK = check.OK()
		out.OK = out.OK && m.OK
		for _, f := range check.Findings {
			m.Findings = append(m.Findings, f.String())
		}
		if outDir != "" {
			m.Saved = filepath.Join(outDir, strings.TrimSuffix(filepath.Base(p), ".wal"))
			if err := set.Save(m.Saved); err != nil {
				fmt.Fprintln(stderr, "djrecover:", err)
				return 1
			}
		}
		sets = append(sets, set)
		out.Members = append(out.Members, m)
	}
	out.Line, out.NoLine = solve(sets)

	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "djrecover:", err)
			return 1
		}
	} else {
		printReport(stdout, &out)
	}
	if !out.OK {
		return 1
	}
	return 0
}

// solve runs the recovery-line solver over the salvaged sets. It returns the
// chosen line, or why there is none; both are empty when the solver finds no
// group epoch in any member, so a lone WAL's report has no recovery-line
// section.
func solve(sets []*tracelog.Set) (*line, string) {
	sol, err := recline.Solve(sets)
	switch {
	case err != nil:
		return nil, err.Error()
	case len(sol.Candidates) == 0:
		return nil, ""
	case sol.Line == nil:
		why := "no complete group epoch survived (per-member restarts only)"
		for _, c := range sol.Candidates {
			why += fmt.Sprintf("; epoch %d: %s", c.Epoch, c.Rejected)
		}
		return nil, why
	}
	l := &line{
		Epoch:     sol.Line.Epoch,
		Anchors:   map[string]uint64{},
		Fallbacks: sol.Fallbacks(),
		Stable:    sol.Stable,
		InFlight:  sol.InFlight,
	}
	for vm, gc := range sol.Line.Anchors {
		l.Anchors[fmt.Sprintf("vm%d", vm)] = uint64(gc)
	}
	for _, c := range sol.Candidates {
		if c.Rejected != "" {
			l.Demoted = append(l.Demoted, fmt.Sprintf("epoch %d: %s", c.Epoch, c.Rejected))
		}
	}
	return l, ""
}

func printReport(w io.Writer, out *report) {
	for _, m := range out.Members {
		if m.Error != "" {
			fmt.Fprintf(w, "%s  FAIL  %s\n", m.Path, m.Error)
			continue
		}
		rep := m.Report
		if m.OK {
			shutdown := "clean"
			if !rep.Clean {
				shutdown = "crash"
			}
			fmt.Fprintf(w, "%s  ok    vm=%d world=%v, %s, prefix [0,%d)\n",
				m.Path, rep.VM, rep.World, shutdown, rep.FinalGC)
		} else {
			fmt.Fprintf(w, "%s  FAIL  %d logcheck finding(s)\n", m.Path, len(m.Findings))
		}
		fmt.Fprintf(w, "  frames:    %d valid (%d bytes kept, %d discarded)\n",
			rep.Frames, rep.GoodBytes, rep.DiscardedBytes)
		if rep.Truncated {
			fmt.Fprintf(w, "  truncated: yes — %s\n", rep.Reason)
		} else {
			fmt.Fprintf(w, "  truncated: no\n")
		}
		fmt.Fprintf(w, "  records:   %d schedule, %d network, %d datagram\n",
			rep.ScheduleRecords, rep.NetworkRecords, rep.DatagramRecords)
		if rep.Clean {
			fmt.Fprintf(w, "  shutdown:  clean (final vm-meta present)\n")
		} else {
			fmt.Fprintf(w, "  shutdown:  CRASH — replayable prefix repaired, vm-meta synthesized\n")
			fmt.Fprintf(w, "  dropped:   %d intervals, %d schedule records, %d datagram records beyond the prefix\n",
				rep.DroppedIntervals, rep.DroppedSchedule, rep.DroppedDatagrams)
			if rep.OpenNotes > 0 {
				fmt.Fprintf(w, "  notes:     %d open-interval durability notes merged into the prefix\n", rep.OpenNotes)
			}
		}
		if m.OK {
			fmt.Fprintf(w, "  logcheck:  ok — recovered set is internally consistent\n")
		} else {
			fmt.Fprintf(w, "  logcheck:  %d finding(s)\n", len(m.Findings))
			for _, f := range m.Findings {
				fmt.Fprintln(w, "    ", f)
			}
		}
		if m.Saved != "" {
			fmt.Fprintf(w, "  saved:     %s (replay with StopAtLogEnd)\n", m.Saved)
		}
	}
	switch {
	case out.Line != nil:
		fmt.Fprintf(w, "recovery line: epoch %d, anchors %v", out.Line.Epoch, out.Line.Anchors)
		if out.Line.Fallbacks > 0 {
			fmt.Fprintf(w, " (fell back through %d newer epoch(s))", out.Line.Fallbacks)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "messages:      %d stable, %d in-flight to re-deliver\n", out.Line.Stable, out.Line.InFlight)
		for _, d := range out.Line.Demoted {
			fmt.Fprintln(w, "  demoted:", d)
		}
	case out.NoLine != "":
		fmt.Fprintf(w, "recovery line: NONE — %s\n", out.NoLine)
	}
}

// writeFixture builds a small single-VM WAL — identity header, a two-thread
// schedule, a few network and datagram records, a final vm-meta — then tears
// off the file's tail mid-frame, simulating a crash between fsyncs. CI feeds
// the result back through djrecover to exercise the torn-write path.
func writeFixture(path string) error {
	w, err := tracelog.CreateWAL(path, tracelog.WALOptions{SyncEvery: -1})
	if err != nil {
		return err
	}
	set := tracelog.NewSet()
	if err := set.AttachWAL(w); err != nil {
		return err
	}
	set.Schedule.Append(&tracelog.VMMeta{VM: 3, World: ids.ClosedWorld})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 4})
	set.Network.Append(&tracelog.BindEntry{
		EventID: ids.NetworkEventID{Thread: 0, Event: 0}, Port: 9000,
	})
	set.Schedule.Append(&tracelog.Interval{Thread: 1, First: 5, Last: 7})
	set.Schedule.Append(&tracelog.Notify{GC: 6, Woken: []ids.ThreadNum{0}})
	set.Datagram.Append(&tracelog.DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 1, Event: 0},
		ReceiverGC: 6,
		Datagram:   ids.DGNetworkEventID{VM: 9, GC: 41},
	})
	// An open-interval durability note for coverage whose flushed interval is
	// about to be torn off: recovery must credit the noted prefix.
	set.Schedule.Append(&tracelog.OpenInterval{Thread: 0, First: 8, Last: 10})
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 8, Last: 11})
	set.Schedule.Append(&tracelog.Interval{Thread: 1, First: 12, Last: 13})
	set.Schedule.Append(&tracelog.VMMeta{VM: 3, World: ids.ClosedWorld, Threads: 2, FinalGC: 14})
	if err := set.CloseWAL(); err != nil {
		return err
	}

	// Tear mid-frame: drop the last 35 bytes, slicing into the final frames
	// exactly as a crash between write and fsync would — deep enough that the
	// final vm-meta AND trailing intervals are lost, so recovery must both
	// truncate the scan and repair the schedule to a shorter prefix.
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, info.Size()-35)
}
