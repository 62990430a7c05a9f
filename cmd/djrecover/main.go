// djrecover inspects and salvages a DJVM write-ahead trace log left behind by
// a crashed node (see Node.EnableWAL / dejavu.Recover):
//
//	djrecover <file.wal>            # scan, repair, report, validate
//	djrecover -json <file.wal>      # machine-readable report
//	djrecover -o <dir> <file.wal>   # also save the recovered log set to dir
//	djrecover -mkfixture <file.wal> # write a deliberately torn fixture (CI)
//	djrecover -set <dir>            # batch: salvage every member *.wal in dir
//	                                # and solve the group recovery line
//
// -set treats the directory as one crashed group: every *.wal is salvaged and
// validated independently (one summary row per member), then the salvaged
// sets are fed to the recovery-line solver, which reports the latest complete
// coordinated-checkpoint line — each member's restart anchor — and why newer
// epochs were demoted (torn stamps, lost anchor checkpoints, orphan
// messages).
//
// Exit status: 0 when every WAL salvaged to an internally consistent set (or
// the fixture was written), 1 when one did not salvage or did not validate, 2
// on a usage error (including a -set directory with no *.wal in it).
//
// The tool truncates nothing on disk: it reads the WAL, discards the torn or
// corrupt tail in memory, repairs the salvaged records to the largest
// replayable prefix, and reports what survived. The recovered set — written
// with -o — replays deterministically up to the crash point with
// Config.StopAtLogEnd.
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

const usage = "usage: djrecover [-json] [-o dir] <file.wal> | djrecover [-json] [-o dir] -set <dir> | djrecover -mkfixture <file.wal>"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djrecover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the recovery report as JSON")
	outDir := fs.String("o", "", "save the recovered log set under this directory")
	fixture := fs.String("mkfixture", "", "write a torn-tail WAL fixture to this path and exit")
	setDir := fs.String("set", "", "batch mode: salvage every member *.wal under this directory and solve the group recovery line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *fixture != "" && fs.NArg() == 0 && *setDir == "":
		if err := writeFixture(*fixture); err != nil {
			fmt.Fprintln(stderr, "djrecover:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote torn fixture %s\n", *fixture)
		return 0
	case *setDir != "" && fs.NArg() == 0 && *fixture == "":
		return runSet(*setDir, *asJSON, *outDir, stdout, stderr)
	case fs.NArg() == 1 && *setDir == "" && *fixture == "":
		return runFile(fs.Arg(0), *asJSON, *outDir, stdout, stderr)
	}
	fmt.Fprintln(stderr, usage)
	return 2
}

// runFile salvages and validates one WAL and returns the process exit code.
func runFile(path string, asJSON bool, outDir string, stdout, stderr io.Writer) int {
	set, rep, err := tracelog.RecoverFile(path)
	if err != nil {
		if rep != nil && asJSON {
			_ = emitJSON(stdout, rep, nil, err) // exits 1 either way, with err on stderr
		}
		fmt.Fprintln(stderr, "djrecover:", err)
		return 1
	}
	check := logcheck.CheckSet(set)

	if asJSON {
		if err := emitJSON(stdout, rep, check, nil); err != nil {
			fmt.Fprintln(stderr, "djrecover:", err)
			return 1
		}
	} else {
		printReport(stdout, rep, check)
	}

	if outDir != "" {
		if err := set.Save(outDir); err != nil {
			fmt.Fprintln(stderr, "djrecover:", err)
			return 1
		}
		fmt.Fprintf(stdout, "recovered log set saved to %s (replay with StopAtLogEnd)\n", outDir)
	}
	if !check.OK() {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep *tracelog.RecoveryReport, check *logcheck.Report) {
	fmt.Fprintf(w, "== %s ==\n", rep.Path)
	fmt.Fprintf(w, "frames:    %d valid (%d bytes kept, %d discarded)\n",
		rep.Frames, rep.GoodBytes, rep.DiscardedBytes)
	if rep.Truncated {
		fmt.Fprintf(w, "truncated: yes — %s\n", rep.Reason)
	} else {
		fmt.Fprintf(w, "truncated: no\n")
	}
	fmt.Fprintf(w, "records:   %d schedule, %d network, %d datagram\n",
		rep.ScheduleRecords, rep.NetworkRecords, rep.DatagramRecords)
	switch {
	case rep.Clean:
		fmt.Fprintf(w, "shutdown:  clean (final vm-meta present)\n")
	default:
		fmt.Fprintf(w, "shutdown:  CRASH — replayable prefix repaired, vm-meta synthesized\n")
		fmt.Fprintf(w, "dropped:   %d intervals, %d schedule records, %d datagram records beyond the prefix\n",
			rep.DroppedIntervals, rep.DroppedSchedule, rep.DroppedDatagrams)
		if rep.OpenNotes > 0 {
			fmt.Fprintf(w, "notes:     %d open-interval durability notes merged into the prefix\n", rep.OpenNotes)
		}
	}
	fmt.Fprintf(w, "identity:  vm=%d world=%v\n", rep.VM, rep.World)
	fmt.Fprintf(w, "replayable prefix: events [0,%d)\n", rep.FinalGC)
	if check.OK() {
		fmt.Fprintf(w, "logcheck:  ok — recovered set is internally consistent\n")
	} else {
		fmt.Fprintf(w, "logcheck:  %d finding(s)\n", len(check.Findings))
		for _, f := range check.Findings {
			fmt.Fprintln(w, "  ", f)
		}
	}
}

// setMemberRow is one member's salvage summary in -set mode.
type setMemberRow struct {
	Path     string                   `json:"path"`
	Report   *tracelog.RecoveryReport `json:"report,omitempty"`
	Findings []string                 `json:"findings,omitempty"`
	OK       bool                     `json:"ok"`
	Error    string                   `json:"error,omitempty"`
}

// setLineRow summarizes the solved recovery line in -set mode.
type setLineRow struct {
	Epoch     uint64            `json:"epoch"`
	Anchors   map[string]uint64 `json:"anchors"`
	Fallbacks int               `json:"fallbacks"`
	Stable    int               `json:"stable_messages"`
	InFlight  int               `json:"in_flight_messages"`
	Demoted   []string          `json:"demoted,omitempty"`
}

// setReport is the -set JSON output shape.
type setReport struct {
	Dir     string         `json:"dir"`
	Members []setMemberRow `json:"members"`
	Line    *setLineRow    `json:"line,omitempty"`
	NoLine  string         `json:"no_line,omitempty"`
	OK      bool           `json:"ok"`
}

// runSet salvages every member WAL under dir, validates each, solves the
// group's recovery line across the salvaged sets, and returns the process
// exit code.
func runSet(dir string, asJSON bool, outDir string, stdout, stderr io.Writer) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(stderr, "djrecover: no *.wal files under %s\n", dir)
		return 2
	}
	sort.Strings(paths)

	out := setReport{Dir: dir, OK: true}
	var sets []*tracelog.Set
	for _, p := range paths {
		row := setMemberRow{Path: p}
		set, rep, err := tracelog.RecoverFile(p)
		row.Report = rep
		if err != nil {
			row.Error = err.Error()
			out.OK = false
		} else {
			check := logcheck.CheckSet(set)
			row.OK = check.OK()
			for _, f := range check.Findings {
				row.Findings = append(row.Findings, f.String())
			}
			if !row.OK {
				out.OK = false
			}
			sets = append(sets, set)
			if outDir != "" {
				name := strings.TrimSuffix(filepath.Base(p), ".wal")
				if err := set.Save(filepath.Join(outDir, name)); err != nil {
					fmt.Fprintln(stderr, "djrecover:", err)
					return 1
				}
			}
		}
		out.Members = append(out.Members, row)
	}

	if len(sets) > 0 {
		sol, err := recline.Solve(sets)
		switch {
		case err != nil:
			out.NoLine = err.Error()
		case sol.Line == nil:
			out.NoLine = "no complete group epoch survived (per-member restarts only)"
			for _, c := range sol.Candidates {
				out.NoLine += fmt.Sprintf("; epoch %d: %s", c.Epoch, c.Rejected)
			}
		default:
			line := &setLineRow{
				Epoch:     sol.Line.Epoch,
				Anchors:   map[string]uint64{},
				Fallbacks: sol.Fallbacks(),
				Stable:    sol.Stable,
				InFlight:  sol.InFlight,
			}
			for vm, gc := range sol.Line.Anchors {
				line.Anchors[fmt.Sprintf("vm%d", vm)] = uint64(gc)
			}
			for _, c := range sol.Candidates {
				if c.Rejected != "" {
					line.Demoted = append(line.Demoted, fmt.Sprintf("epoch %d: %s", c.Epoch, c.Rejected))
				}
			}
			out.Line = line
		}
	}

	if asJSON {
		if err := writeJSON(stdout, out); err != nil {
			fmt.Fprintln(stderr, "djrecover:", err)
			return 1
		}
	} else {
		printSetReport(stdout, &out)
	}
	if !out.OK {
		return 1
	}
	return 0
}

func printSetReport(w io.Writer, out *setReport) {
	fmt.Fprintf(w, "== group salvage: %s (%d members) ==\n", out.Dir, len(out.Members))
	for _, m := range out.Members {
		switch {
		case m.Error != "":
			fmt.Fprintf(w, "%-20s FAIL  %s\n", filepath.Base(m.Path), m.Error)
		case !m.OK:
			fmt.Fprintf(w, "%-20s FAIL  %d logcheck finding(s)\n", filepath.Base(m.Path), len(m.Findings))
			for _, f := range m.Findings {
				fmt.Fprintln(w, "    ", f)
			}
		default:
			shutdown := "clean"
			if !m.Report.Clean {
				shutdown = "crash"
			}
			fmt.Fprintf(w, "%-20s ok    vm=%d %s, prefix [0,%d), %d frames\n",
				filepath.Base(m.Path), m.Report.VM, shutdown, m.Report.FinalGC, m.Report.Frames)
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

// jsonReport is the -json output shape.
type jsonReport struct {
	Report   *tracelog.RecoveryReport `json:"report"`
	Findings []string                 `json:"findings,omitempty"`
	OK       bool                     `json:"ok"`
	Error    string                   `json:"error,omitempty"`
}

func emitJSON(w io.Writer, rep *tracelog.RecoveryReport, check *logcheck.Report, err error) error {
	out := jsonReport{Report: rep}
	if check != nil {
		out.OK = check.OK()
		for _, f := range check.Findings {
			out.Findings = append(out.Findings, f.String())
		}
	}
	if err != nil {
		out.Error = err.Error()
	}
	return writeJSON(w, out)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
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
