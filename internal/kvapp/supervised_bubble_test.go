//go:build goexperiment.synctest

package kvapp

import (
	"fmt"
	"testing"
	"testing/synctest"
)

// TestSupervisedBubble runs whole supervised chaos runs in a testing/synctest
// bubble, on its virtual clock. synctest.Run returns only once every
// goroutine the run started has exited, and panics when all of them are
// blocked for good: returning at all proves that no member's thread — a
// killed member's included — and no supervisor, watchdog, echo peer or
// network goroutine outlives the run. Build it with GOEXPERIMENT=synctest.
func TestSupervisedBubble(t *testing.T) {
	for _, n := range memberCounts {
		for _, seed := range []uint64{7, 42} {
			n, seed := n, seed
			t.Run(fmt.Sprintf("members%d/seed%d", n, seed), func(t *testing.T) {
				dir := t.TempDir()
				var res *SupervisedResult
				var err error
				synctest.Run(func() {
					res, err = RunSupervised(SupervisedConfig{Dir: dir, Seed: seed, Members: n})
				})
				if err != nil {
					t.Fatalf("RunSupervised: %v", err)
				}
				if !res.Converged || !res.OnLine {
					t.Fatalf("converged=%v online=%v: %+v", res.Converged, res.OnLine, res.Members)
				}
			})
		}
	}
}
