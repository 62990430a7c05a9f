package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/tracelog"
)

// phasedApp runs nPhases phases; each phase spawns workers that race on a
// shared counter, joins them, and checkpoints the phase number plus counter.
// With fromPhase > 0 the app resumes mid-run (restoring state instead of
// recomputing), as a resumed replay does.
func phasedApp(vm *core.VM, nPhases, fromPhase int, startCounter int64, trace *[]int64) {
	var counter core.SharedInt
	vm.Start(func(main *core.Thread) {
		if fromPhase > 0 {
			// Checkpoint restoration happens outside the recorded schedule.
			counter.Restore(startCounter)
		}
		for phase := fromPhase; phase < nPhases; phase++ {
			done := make(chan struct{}, 4)
			for w := 0; w < 4; w++ {
				main.Spawn(func(th *core.Thread) {
					defer func() { done <- struct{}{} }()
					for i := 0; i < 25; i++ {
						v := counter.Get(th)
						counter.Set(th, v+1) // racy increment
					}
				})
			}
			for w := 0; w < 4; w++ {
				<-done
			}
			snap := counter.Get(main)
			*trace = append(*trace, snap)
			phase := phase
			Take(main, func() []byte {
				buf := make([]byte, 12)
				binary.BigEndian.PutUint32(buf[0:4], uint32(phase+1))
				binary.BigEndian.PutUint64(buf[4:12], uint64(snap))
				return buf
			})
		}
	})
	vm.Wait()
	vm.Close()
}

func TestCheckpointResumeReplaysTail(t *testing.T) {
	const nPhases = 5

	recVM, err := core.NewVM(core.Config{ID: 77, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	var recTrace []int64
	phasedApp(recVM, nPhases, 0, 0, &recTrace)
	if len(recTrace) != nPhases {
		t.Fatalf("record traced %d phases, want %d", len(recTrace), nPhases)
	}

	snap, err := Latest(recVM.Logs())
	if err != nil {
		t.Fatalf("Latest: %v", err)
	}
	fromPhase := int(binary.BigEndian.Uint32(snap.Data[0:4]))
	savedCounter := int64(binary.BigEndian.Uint64(snap.Data[4:12]))
	if fromPhase != nPhases {
		t.Fatalf("latest checkpoint at phase %d, want %d", fromPhase, nPhases)
	}

	// Resume from the second checkpoint instead, so there is a tail to
	// replay.
	idx, err := tracelog.BuildScheduleIndex(recVM.Logs().Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Checkpoints) != nPhases {
		t.Fatalf("%d checkpoints recorded, want %d", len(idx.Checkpoints), nPhases)
	}
	second := idx.Checkpoints[1]
	resume := &Snapshot{
		GC: second.GC,
		Resume: core.ResumePoint{
			GC:           second.GC + 1,
			NextThread:   ids.ThreadNum(second.NextThread),
			MainThread:   second.TakerThread,
			MainEventNum: second.MainEventNum,
		},
		Data: second.State,
	}
	resumePhase := int(binary.BigEndian.Uint32(resume.Data[0:4]))
	resumeCounter := int64(binary.BigEndian.Uint64(resume.Data[4:12]))
	if resumePhase != 2 {
		t.Fatalf("second checkpoint is for phase %d, want 2", resumePhase)
	}

	repVM, err := core.NewVM(ResumeConfig(core.Config{ID: 77}, recVM.Logs(), resume))
	if err != nil {
		t.Fatal(err)
	}
	var repTrace []int64
	phasedApp(repVM, nPhases, resumePhase, resumeCounter, &repTrace)

	// The resumed replay recomputes phases 2..4 and must land on the same
	// per-phase counters the record phase observed.
	want := recTrace[resumePhase:]
	if len(repTrace) != len(want) {
		t.Fatalf("resumed replay traced %d phases, want %d", len(repTrace), len(want))
	}
	for i := range want {
		if repTrace[i] != want[i] {
			t.Errorf("resumed phase %d counter %d, record %d", resumePhase+i, repTrace[i], want[i])
		}
	}
	_ = savedCounter

	// The observability layer accounts for the recorded events the resume
	// skipped: everything before the checkpoint's counter was fast-forwarded,
	// not executed.
	s := repVM.Metrics().Snapshot()
	if s.FastForwardSkips == 0 {
		t.Error("resumed replay reported no fast-forward skips")
	}
	if s.FastForwardSkips+s.TotalEvents < uint64(second.GC) {
		t.Errorf("skipped %d + executed %d events cannot cover the %d pre-checkpoint events",
			s.FastForwardSkips, s.TotalEvents, second.GC)
	}
	if s.Events.Checkpoint == 0 {
		t.Error("replayed tail contains checkpoints but none were counted")
	}
}

func TestLatestWithoutCheckpoint(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 78, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	vm.Start(func(*core.Thread) {})
	vm.Wait()
	vm.Close()
	if _, err := Latest(vm.Logs()); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Latest = %v, want ErrNoCheckpoint", err)
	}
}

func TestTakeIsNoOpOutsideRecord(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 79, Mode: ids.Passthrough})
	if err != nil {
		t.Fatal(err)
	}
	called := false
	vm.Start(func(main *core.Thread) {
		Take(main, func() []byte { called = true; return nil })
	})
	vm.Wait()
	vm.Close()
	if called {
		t.Error("Take captured state outside record mode")
	}
}

// TestListDataIsTheCallers: List hands out the copy its index made of each
// state, so writing into one Snapshot's Data changes neither what a second
// List returns nor the log's bytes.
func TestListDataIsTheCallers(t *testing.T) {
	vm, err := core.NewVM(core.Config{ID: 76, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	var trace []int64
	phasedApp(vm, 2, 0, 0, &trace)
	logged := vm.Logs().Schedule.Bytes()
	first, err := List(vm.Logs())
	if err != nil || len(first) != 2 {
		t.Fatalf("List: %d checkpoints, %v; want 2", len(first), err)
	}
	want := string(first[0].Data)
	for i := range first[0].Data {
		first[0].Data[i] ^= 0xff
	}
	second, err := List(vm.Logs())
	if err != nil {
		t.Fatal(err)
	}
	if got := string(second[0].Data); got != want {
		t.Errorf("a second List returned state %x after the first's was overwritten, want %x", got, want)
	}
	if !bytes.Equal(vm.Logs().Schedule.Bytes(), logged) {
		t.Error("writing into a listed checkpoint's Data changed the schedule log")
	}
}
