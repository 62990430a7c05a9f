package djsock

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// TestAcceptCompletesOnlyAfterConnectIsMarked pins the record-phase ordering
// of a closed-world connect: its meta data goes out inside the GC-critical
// section, so the server's accept cannot complete — and nothing downstream of
// it can be marked on the client — before the connect has its counter value.
// While another client thread holds the section the connect has dialled but
// cannot be marked; the accept must wait for it. With the meta data sent
// before the mark, the accept completed here, and a recording in which other
// client events depending on it took smaller counters deadlocked every replay.
func TestAcceptCompletesOnlyAfterConnectIsMarked(t *testing.T) {
	run := func(mode ids.Mode, serverLogs, clientLogs *tracelog.Set) (*core.VM, *core.VM) {
		accepted := make(chan struct{})
		app := twoVMApp{
			server: func(e *Env, main *core.Thread, ready chan<- uint16) {
				ss, err := e.Listen(main, 0)
				if err != nil {
					t.Errorf("listen: %v", err)
					ready <- 0
					return
				}
				ready <- ss.Port()
				sock, err := ss.Accept(main)
				if err != nil {
					t.Errorf("accept: %v", err)
				} else {
					sock.Close(main)
				}
				close(accepted)
				ss.Close(main)
			},
			client: func(e *Env, main *core.Thread, port uint16) {
				inSection, release, dial := make(chan struct{}), make(chan struct{}), make(chan struct{})
				connector := main.Spawn(func(th *core.Thread) {
					<-dial
					sock, err := e.Connect(th, netsim.Addr{Host: "server", Port: port})
					if err != nil {
						t.Errorf("connect: %v", err)
						return
					}
					sock.Close(th)
				})
				holder := main.Spawn(func(th *core.Thread) {
					th.Critical(func(ids.GCount) {
						close(inSection)
						<-release
					})
				})
				<-inSection
				close(dial)
				select {
				case <-accepted:
					t.Errorf("%v: accept completed while the connect could not yet be marked", mode)
				case <-time.After(150 * time.Millisecond):
				}
				close(release)
				main.Join(connector)
				main.Join(holder)
			},
		}
		return runTwoVMs(t, app, mode, 5, serverLogs, clientLogs)
	}
	recS, recC := run(ids.Record, nil, nil)
	run(ids.Replay, recS.Logs(), recC.Logs())
}
