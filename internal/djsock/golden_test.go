package djsock

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// An open-world golden fixture: the three logs of a server DJVM that served a
// few connections from a plain (non-DJVM) client, committed under
// testdata/golden/open with the digest of what each of its threads read and
// wrote. The tests below replay it with today's code, which is what "every log
// recorded before this change still replays" means for a change to the log's
// in-memory layout, its decoder, or the record of an open-world write.
//
// The committed fixture was recorded at commit 4693e06 (the parent of the
// chunked log and the word-wide write checksum), so every write in it is a
// KindOpenWrite record holding an FNV-1a sum. Re-record with
//
//	go test ./internal/djsock/ -run TestGoldenOpenWorld -update
//
// only from a checkout of the commit whose logs the fixture should pin:
// re-recording with the code under test makes the tests vacuous.
var updateGolden = flag.Bool("update", false, "re-record the open-world golden fixture under testdata/golden")

const (
	goldenOpenDir   = "testdata/golden/open"
	goldenOpenConns = 4
	goldenReqLen    = 24
	goldenReplyLen  = goldenReqLen + len("|served=0")
)

// goldenOpenServer is the fixture's program: accept goldenOpenConns
// connections and, on a thread each, read a request, bump a racy counter,
// write a reply made of both, and close. With flip ≥ 0 the handler of that
// accept flips one bit of its reply before writing it — the divergence a
// replay must catch. It returns the per-thread digests and the first error a
// handler's write returned.
func goldenOpenServer(vm *core.VM, env *Env, ready chan<- uint16, flip int) (string, error) {
	var served core.SharedInt
	var mu sync.Mutex
	digests := map[ids.ThreadNum]string{}
	var writeErr error
	vm.Start(func(main *core.Thread) {
		ss, err := env.Listen(main, 0)
		if err != nil {
			panic(err)
		}
		ready <- ss.Port()
		var handlers []*core.Thread
		for i := 0; i < goldenOpenConns; i++ {
			i := i
			conn, err := ss.Accept(main)
			if err != nil {
				panic(err)
			}
			handlers = append(handlers, main.Spawn(func(th *core.Thread) {
				req := make([]byte, goldenReqLen)
				if err := conn.ReadFull(th, req); err != nil {
					panic(err)
				}
				n := served.Get(th) + 1 // racy: the reply depends on the schedule
				served.Set(th, n)
				reply := append(bytes.ToUpper(req), fmt.Sprintf("|served=%d", n)...)
				if i == flip {
					reply[5] ^= 0x20
				}
				_, werr := conn.Write(th, reply)
				if err := conn.Close(th); err != nil {
					panic(err)
				}
				sum := sha256.Sum256(append(req, reply...))
				mu.Lock()
				defer mu.Unlock()
				digests[th.Num()] = fmt.Sprintf("%x", sum[:8])
				if werr != nil && writeErr == nil {
					writeErr = werr
				}
			}))
		}
		for _, h := range handlers {
			main.Join(h)
		}
	})
	vm.Wait()
	vm.Close()
	threads := make([]ids.ThreadNum, 0, len(digests))
	for tn := range digests {
		threads = append(threads, tn)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
	var b strings.Builder
	for _, tn := range threads {
		fmt.Fprintf(&b, "t%d=%s ", tn, digests[tn])
	}
	fmt.Fprintf(&b, "served=%d", served.Load())
	return b.String(), writeErr
}

// recordGoldenOpen records the fixture against a plain client whose threads
// connect concurrently; see updateGolden.
func recordGoldenOpen(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Chaos: chaosProfile(), Seed: 19})
	vm := newVM(t, core.Config{ID: 91, Mode: ids.Record, World: ids.OpenWorld, RecordJitter: 2})
	ready := make(chan uint16, 1)
	var state string
	done := make(chan struct{})
	go func() {
		defer close(done)
		state, _ = goldenOpenServer(vm, NewEnv(vm, net, "server"), ready, -1)
	}()
	port := <-ready

	client := newVM(t, core.Config{ID: 1001, Mode: ids.Passthrough})
	cenv := NewEnv(client, net, "client")
	client.Start(func(main *core.Thread) {
		var threads []*core.Thread
		for i := 0; i < goldenOpenConns; i++ {
			i := i
			threads = append(threads, main.Spawn(func(th *core.Thread) {
				conn, err := cenv.Connect(th, netsim.Addr{Host: "server", Port: port})
				if err != nil {
					panic(err)
				}
				req := []byte(fmt.Sprintf("request %d from a client.....", i))[:goldenReqLen]
				if _, err := conn.Write(th, req); err != nil {
					panic(err)
				}
				if err := conn.ReadFull(th, make([]byte, goldenReplyLen)); err != nil {
					panic(err)
				}
				conn.Close(th)
			}))
		}
		for _, th := range threads {
			main.Join(th)
		}
	})
	client.Wait()
	client.Close()
	<-done

	if err := vm.Logs().Save(goldenOpenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenOpenDir, "final.txt"), []byte(state+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// replayGoldenOpen replays the committed fixture with no client and no
// network traffic, as an open-world replay runs (§5).
func replayGoldenOpen(t *testing.T, flip int) (string, error) {
	t.Helper()
	logs, err := tracelog.LoadSet(goldenOpenDir)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture is an old log: every write in it is an FNV-1a record.
	fnvWrites := 0
	if err := logs.Network.Each(func(e tracelog.Entry) error {
		if e.Kind() == tracelog.KindOpenWrite {
			fnvWrites++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	x, err := tracelog.IndexSet(logs)
	if err != nil {
		t.Fatal(err)
	}
	idx := x.Network
	if fnvWrites != goldenOpenConns || idx.OpenWrites.Len() != goldenOpenConns ||
		idx.OpenAccepts.Len() != goldenOpenConns || idx.OpenReads.Len() < goldenOpenConns {
		t.Fatalf("fixture holds %d open-write records (%d indexed), %d accepts, %d reads; want %d old-kind writes",
			fnvWrites, idx.OpenWrites.Len(), idx.OpenAccepts.Len(), idx.OpenReads.Len(), goldenOpenConns)
	}
	vm := newVM(t, core.Config{
		ID: 91, Mode: ids.Replay, World: ids.OpenWorld, ReplayLogs: logs,
		StallTimeout: 10 * time.Second,
	})
	return goldenOpenServer(vm, NewEnv(vm, netsim.NewNetwork(netsim.Config{}), "server"), make(chan uint16, 1), flip)
}

// TestGoldenOpenWorldReplays: the parent-recorded open-world set replays to
// the digests its recording run reached.
func TestGoldenOpenWorldReplays(t *testing.T) {
	if *updateGolden {
		recordGoldenOpen(t)
	}
	want, err := os.ReadFile(filepath.Join(goldenOpenDir, "final.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, werr := replayGoldenOpen(t, -1)
	if werr != nil {
		t.Errorf("replayed write failed: %v", werr)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Errorf("replay reached %q, the recording %q", got, want)
	}
}

// TestGoldenOpenWorldDetectsChangedWrite: a replay that writes one changed
// byte to a non-DJVM peer is still caught against an old log, by the FNV-1a
// sum its open-write records hold.
func TestGoldenOpenWorldDetectsChangedWrite(t *testing.T) {
	_, werr := replayGoldenOpen(t, 2)
	if !errors.Is(werr, ErrDiverged) {
		t.Fatalf("changed write returned %v, want ErrDiverged", werr)
	}
	if msg := werr.Error(); !strings.Contains(msg, "open-write checksum") {
		t.Errorf("divergence %q does not name the old kind's checksum", msg)
	}
}
