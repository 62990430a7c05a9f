package djsock

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// bulkSize is what the source sends a bulk client: enough that the client's
// network log is larger than the window a loaded log is read through.
const bulkSize = 3 << 19

// bulkRun runs an open-world client that reads everything a non-DJVM source
// sends it, 1 KiB at a time, and returns what it read and the error it
// stopped at (nil at end of stream). Recording, the source sends bulkSize
// bytes seeded by seed; replaying, there is no source and the reads come
// from logs. before, if set, runs between building the client's VM and
// starting it.
func bulkRun(t *testing.T, mode ids.Mode, seed int64, logs *tracelog.Set, before func()) (*core.VM, []byte, error) {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Seed: seed})
	port := uint16(49152)
	if mode == ids.Record {
		src := newVM(t, core.Config{ID: 1001, Mode: ids.Passthrough})
		env := NewEnv(src, net, "src")
		ready := make(chan uint16, 1)
		src.Start(func(main *core.Thread) {
			ss, err := env.Listen(main, 0)
			if err != nil {
				panic(err)
			}
			ready <- ss.Port()
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			data := make([]byte, bulkSize)
			rand.New(rand.NewSource(seed)).Read(data)
			for ; len(data) > 0; data = data[1<<10:] {
				if _, err := conn.Write(main, data[:1<<10]); err != nil {
					panic(err)
				}
			}
			conn.Close(main)
		})
		port = <-ready
	}
	vm := newVM(t, core.Config{ID: 70, Mode: mode, World: ids.OpenWorld, ReplayLogs: logs})
	env := NewEnv(vm, net, "client")
	if before != nil {
		before()
	}
	var (
		got     []byte
		readErr error
	)
	vm.Start(func(main *core.Thread) {
		conn, err := env.Connect(main, netsim.Addr{Host: "src", Port: port})
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 1<<10)
		for {
			n, err := conn.Read(main, buf)
			got = append(got, buf[:n]...)
			if err != nil {
				if err != io.EOF {
					readErr = err
				}
				break
			}
		}
		conn.Close(main)
	})
	done := make(chan struct{})
	go func() { vm.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("bulk client hung in %v mode", mode)
	}
	vm.Close()
	return vm, got, readErr
}

// TestOpenWorldReplayFromALoadedLog replays an open-world client from a log
// loaded from disk, larger than the window the load reads it through. The
// set replays after another recording is saved into its directory, since
// Save replaces a file rather than writing into it; a file cut short under
// the set makes the read whose record is gone fail as a divergence that says
// the log is corrupt and names the event — after every byte before it was
// replayed as recorded.
func TestOpenWorldReplayFromALoadedLog(t *testing.T) {
	rec, want, err := bulkRun(t, ids.Record, 1, nil, nil)
	if err != nil || len(want) != bulkSize {
		t.Fatalf("recording read %d bytes: %v", len(want), err)
	}
	dir := t.TempDir()
	if err := rec.Logs().Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := tracelog.LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if size := loaded.Network.Size(); size <= 1<<20 {
		t.Fatalf("the network log is %d bytes: no larger than a window", size)
	}

	other, otherWant, err := bulkRun(t, ids.Record, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Logs().Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, got, err := bulkRun(t, ids.Replay, 99, loaded, nil); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replay of the first set after the second was saved over it: %d bytes, %v", len(got), err)
	}

	// The directory now holds the second recording. Load it, let the replay
	// VM index it, and cut the file in half before the replay reads.
	loaded, err = tracelog.LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	cut := func() {
		path := filepath.Join(dir, "network.log")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	_, got, err := bulkRun(t, ids.Replay, 99, loaded, cut)
	if !errors.Is(err, ErrDiverged) || !errors.Is(err, tracelog.ErrCorrupt) || !strings.Contains(err.Error(), "open-read record of event nev⟨") {
		t.Fatalf("replay from a file cut short stopped with %v, want a divergence naming the corrupt open-read", err)
	}
	if len(got) == 0 || len(got) >= len(otherWant) || !bytes.Equal(got, otherWant[:len(got)]) {
		t.Fatalf("replay from a file cut short read %d bytes, not a proper prefix of the %d recorded", len(got), len(otherWant))
	}
}
