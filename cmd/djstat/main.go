// djstat inspects the observability snapshot of a DJVM — either live, by
// polling the JSON metrics endpoint a node exposes with
// Node.ServeMetrics, or offline, by pretty-printing a dumped snapshot file:
//
//	djstat http://127.0.0.1:8123/          # one-shot report from a live VM
//	djstat -watch http://127.0.0.1:8123/   # live replay-progress view (1s poll)
//	djstat -watch -interval 250ms URL      # faster poll
//	djstat snapshot.json                   # pretty-print a dumped snapshot
//	djstat -json URL-or-file               # re-emit the snapshot as JSON
//
// In -watch mode djstat redraws a progress line (percent of the recorded
// schedule replayed, parked threads, watchdog state) until the replay
// completes or the endpoint goes away. The counter it shows is the VM's
// counter word as last published (obs.ReplayProgress.CurrentGC): of a VM whose
// threads are running it trails the thread that holds the counter's turn by
// less than 1024 events, and it is exact — 100% — once they have finished.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 on success, 1 when the source cannot be read, 2 on
// usage errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	watch := fs.Bool("watch", false, "poll the source and redraw replay progress until done")
	interval := fs.Duration("interval", time.Second, "poll interval for -watch")
	asJSON := fs.Bool("json", false, "emit the snapshot as indented JSON instead of a report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: djstat [-watch] [-interval 1s] [-json] <metrics-url | snapshot-file>")
		return 2
	}
	src := fs.Arg(0)

	var err error
	if *watch {
		err = watchLoop(stdout, src, *interval)
	} else {
		err = report(stdout, src, *asJSON)
	}
	if err != nil {
		fmt.Fprintln(stderr, "djstat:", err)
		return 1
	}
	return 0
}

// report prints one snapshot of src, as a report or as indented JSON.
func report(out io.Writer, src string, asJSON bool) error {
	s, err := fetch(src)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	obs.WriteReport(out, s)
	return nil
}

// fetch loads a Snapshot from an http(s) URL or a local file.
func fetch(src string) (obs.Snapshot, error) {
	var (
		data []byte
		err  error
	)
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		var resp *http.Response
		resp, err = http.Get(src)
		if err != nil {
			return obs.Snapshot{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return obs.Snapshot{}, fmt.Errorf("%s: %s", src, resp.Status)
		}
		data, err = io.ReadAll(resp.Body)
	} else {
		data, err = os.ReadFile(src)
	}
	if err != nil {
		return obs.Snapshot{}, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return obs.Snapshot{}, fmt.Errorf("%s: not a snapshot: %w", src, err)
	}
	return s, nil
}

// watchLoop polls src and redraws a single progress line until the replay
// reaches its recorded final counter (or, for record-mode VMs with no final
// counter, until the endpoint disappears / the user interrupts). A VM
// typically exits right after its replay completes, so when the endpoint
// goes away mid-watch the error reports the last observed progress.
func watchLoop(out io.Writer, src string, every time.Duration) error {
	if every <= 0 {
		every = time.Second
	}
	var last *obs.Snapshot
	for {
		s, err := fetch(src)
		if err != nil {
			fmt.Fprintln(out)
			if last != nil {
				r := last.Replay
				if pct := r.Percent(); pct >= 0 {
					return fmt.Errorf("endpoint gone at gc=%d/%d (%.1f%%) — vm exited? (%w)",
						r.CurrentGC, r.FinalGC, pct, err)
				}
				return fmt.Errorf("endpoint gone at gc=%d — vm exited? (%w)", r.CurrentGC, err)
			}
			return err
		}
		last = &s
		line := progressLine(s)
		fmt.Fprintf(out, "\r\033[K%s", line)
		if pct := s.Replay.Percent(); pct >= 100 {
			fmt.Fprintln(out)
			obs.WriteReport(out, s)
			return nil
		}
		time.Sleep(every)
	}
}

func progressLine(s obs.Snapshot) string {
	r := s.Replay
	if pct := r.Percent(); pct >= 0 {
		extra := ""
		if r.ParkedThreads > 0 {
			extra = fmt.Sprintf(" parked=%d", r.ParkedThreads)
		}
		if r.Stalled {
			extra += " STALLED"
		}
		return fmt.Sprintf("replay %s %5.1f%%  gc=%d/%d%s",
			obs.ProgressBar(pct, 30), pct, r.CurrentGC, r.FinalGC, extra)
	}
	return fmt.Sprintf("record  gc=%d  events=%d  log=%dB",
		r.CurrentGC, s.TotalEvents, s.Logs.TotalBytes())
}
