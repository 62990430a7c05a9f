package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/obs"
)

// replaySnapshots records a 3000-event run followed by a child's event,
// replays it, and returns the snapshot djstat would fetch while the main
// thread is inside the run — after `mid` events, in plain code between two of
// them — and the one it would fetch after the replay finished.
func replaySnapshots(t *testing.T, mid int) (midRun, finished obs.Snapshot) {
	t.Helper()
	const events = 3000
	program := func(vm *core.VM, between func(i int)) {
		var x core.SharedInt
		vm.Start(func(main *core.Thread) {
			for i := 0; i < events; i++ {
				if between != nil {
					between(i)
				}
				x.Add(main, 1)
			}
			main.Join(main.Spawn(func(th *core.Thread) { x.Add(th, 1) }))
		})
		vm.Wait()
	}
	rec, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	program(rec, nil)
	rec.Close()
	rep, err := core.NewVM(core.Config{ID: 1, Mode: ids.Replay, ReplayLogs: rec.Logs()})
	if err != nil {
		t.Fatal(err)
	}
	program(rep, func(i int) {
		if i == mid {
			midRun = rep.Metrics().Snapshot()
		}
	})
	return midRun, rep.Metrics().Snapshot()
}

// serve exposes a fixed snapshot the way Node.ServeMetrics exposes a live one.
func serve(t *testing.T, s obs.Snapshot) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(s)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func djstat(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// The number -watch prints is CurrentGC/FinalGC, and CurrentGC is the counter
// word as last published: behind a running thread by less than a publish batch
// (1024), exact once the threads are done.
func TestProgressIsTheWordAsLastPublished(t *testing.T) {
	const mid = 2*1024 + 300
	midRun, finished := replaySnapshots(t, mid)

	if gc := midRun.Replay.CurrentGC; gc > mid || gc+1024 <= mid {
		t.Errorf("snapshot taken %d events into a run reads counter %d, want within 1024 behind", mid, gc)
	}
	code, out, errs := djstat(t, serve(t, midRun))
	if code != 0 || !strings.Contains(out, "as last published") || strings.Contains(out, "100.0%") {
		t.Errorf("mid-run report (exit %d, stderr %q):\n%s", code, errs, out)
	}
	if line := progressLine(midRun); !strings.Contains(line, "gc=2048/3003") {
		t.Errorf("mid-run progress line %q, want the last publication point 2048 of 3003", line)
	}

	url := serve(t, finished)
	code, out, errs = djstat(t, url)
	if code != 0 || !strings.Contains(out, "100.0%") || !strings.Contains(out, "gc 3003/3003 (as last published)") {
		t.Errorf("finished report (exit %d, stderr %q):\n%s", code, errs, out)
	}
	// -watch stops at 100% and prints the report.
	code, out, errs = djstat(t, "-watch", "-interval", "1ms", url)
	if code != 0 || !strings.Contains(out, "100.0%  gc=3003/3003") || !strings.Contains(out, "events   total 3003") {
		t.Errorf("-watch of a finished replay (exit %d, stderr %q):\n%s", code, errs, out)
	}
	// -json round-trips the snapshot.
	code, out, errs = djstat(t, "-json", url)
	var back obs.Snapshot
	if err := json.Unmarshal([]byte(out), &back); code != 0 || err != nil || !reflect.DeepEqual(back, finished) {
		t.Errorf("-json (exit %d, stderr %q, unmarshal %v): got %+v, want %+v", code, errs, err, back, finished)
	}
}

func TestUsageAndUnreadableSource(t *testing.T) {
	if code, _, errs := djstat(t); code != 2 || !strings.Contains(errs, "usage: djstat") {
		t.Errorf("no arguments: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := djstat(t, t.TempDir()+"/missing.json"); code != 1 || !strings.Contains(errs, "djstat:") {
		t.Errorf("missing file: exit %d, stderr %q", code, errs)
	}
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if code, _, errs := djstat(t, "-watch", srv.URL); code != 1 || !strings.Contains(errs, "404") {
		t.Errorf("-watch of a dead endpoint: exit %d, stderr %q", code, errs)
	}
}
