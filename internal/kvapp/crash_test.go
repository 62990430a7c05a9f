package kvapp

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ids"
	"repro/internal/logcheck"
	"repro/internal/tracelog"
)

// TestPrimaryWALCleanRecoveryReplaysIdentically records a full store run with
// the primary teeing its logs through a WAL, recovers the (cleanly closed)
// file, and replays the whole world with the recovered set standing in for
// the primary's in-memory logs. The digests must match: the durable stream is
// byte-faithful, not an approximation of the in-memory logs.
func TestPrimaryWALCleanRecoveryReplaysIdentically(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "primary.wal")
	cfg := smallConfig(ids.Record, 21, nil)
	cfg.PrimaryWAL = walPath
	rec, logs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	recovered, rep, err := tracelog.RecoverFile(walPath)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !rep.Clean || rep.Truncated {
		t.Fatalf("graceful shutdown misclassified: %+v", rep)
	}
	if check := logcheck.CheckSet(recovered); !check.OK() {
		t.Fatalf("recovered set fails logcheck: %v", check.Findings)
	}

	replayLogs := append(RunLogs{recovered}, logs[1:]...)
	repRes, _, err := Run(smallConfig(ids.Replay, 6100, replayLogs))
	if err != nil {
		t.Fatal(err)
	}
	if repRes.PrimaryDigest != rec.PrimaryDigest || repRes.ClientDigest != rec.ClientDigest ||
		repRes.ServedOps != rec.ServedOps {
		t.Errorf("replay from WAL-recovered primary logs diverged:\nrecord: %+v\nreplay: %+v", rec, repRes)
	}
	for r := range rec.ReplicaDigests {
		if repRes.ReplicaDigests[r] != rec.ReplicaDigests[r] {
			t.Errorf("replica %d digest %x, record %x", r, repRes.ReplicaDigests[r], rec.ReplicaDigests[r])
		}
	}
}

// TestPrimaryWALRandomCrashPointsRecoverConsistently is the crash-point
// property test over a real application's log: the primary's WAL — full of
// interleaved schedule, network, and datagram records from a chaotic run —
// is cut at random byte offsets, and every cut must recover to an internally
// consistent replayable prefix (logcheck-clean, within the full run's event
// range, datagram deliveries inside the prefix).
func TestPrimaryWALRandomCrashPointsRecoverConsistently(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "primary.wal")
	cfg := smallConfig(ids.Record, 33, nil)
	cfg.PrimaryWAL = walPath
	// Sync every record so the file is complete; the cut simulates the crash.
	cfg.PrimaryWALSync = -1
	if _, _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	_, fullRep, err := tracelog.RecoverFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	fullGC := fullRep.FinalGC

	rng := rand.New(rand.NewSource(97))
	salvaged := 0
	maxK := ids.GCount(0)
	for i := 0; i < 12; i++ {
		cut := 9 + rng.Intn(len(data)-9)
		cutPath := filepath.Join(dir, fmt.Sprintf("cut%d.wal", i))
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		set, rep, err := tracelog.RecoverFile(cutPath)
		if err != nil {
			if rep != nil && rep.Frames == 0 {
				continue // cut before the identity header reached the file
			}
			t.Fatalf("cut=%d: RecoverFile: %v", cut, err)
		}
		salvaged++
		if rep.FinalGC > maxK {
			maxK = rep.FinalGC
		}
		if rep.FinalGC > fullGC {
			t.Fatalf("cut=%d: prefix %d exceeds full run's %d events", cut, rep.FinalGC, fullGC)
		}
		if int64(cut) != rep.GoodBytes+rep.DiscardedBytes {
			t.Fatalf("cut=%d: good %d + discarded %d != file size", cut, rep.GoodBytes, rep.DiscardedBytes)
		}
		if check := logcheck.CheckSet(set); !check.OK() {
			t.Fatalf("cut=%d: recovered prefix [0,%d) fails logcheck: %v", cut, rep.FinalGC, check.Findings)
		}
		x, err := tracelog.IndexSet(set)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		for _, e := range x.Datagram.ByEvent.All() {
			if e.ReceiverGC >= rep.FinalGC {
				t.Fatalf("cut=%d: datagram delivery at counter %d beyond prefix %d", cut, e.ReceiverGC, rep.FinalGC)
			}
		}
	}
	if salvaged < 8 {
		t.Fatalf("only %d of 12 random cuts salvaged a prefix", salvaged)
	}
	// Non-vacuity: thanks to open-interval durability notes, the deepest cut
	// must salvage a substantial share of the run, not a token prefix.
	if maxK < fullGC/4 {
		t.Fatalf("best cut recovered only [0,%d) of %d events", maxK, fullGC)
	}
}
