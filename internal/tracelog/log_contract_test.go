package tracelog

import (
	"testing"

	"repro/internal/ids"
)

// TestLoadSetRecoversLen is the regression test for loaded logs lying about
// their entry counts: LoadSet must validate each stream and restore Len() to
// what the recording Log reported.
func TestLoadSetRecoversLen(t *testing.T) {
	s := NewSet()
	for i := 0; i < 5; i++ {
		s.Schedule.Append(&Interval{Thread: ids.ThreadNum(i), First: ids.GCount(2 * i), Last: ids.GCount(2*i + 1)})
	}
	s.Schedule.Append(&VMMeta{VM: 7, Threads: 5, FinalGC: 10})
	s.Network.Append(&ReadEntry{EventID: ids.NetworkEventID{Thread: 1, Event: 2}, N: 64})
	s.Datagram.Append(&DatagramRecvEntry{
		EventID:    ids.NetworkEventID{Thread: 3, Event: 4},
		ReceiverGC: 9,
		Datagram:   ids.DGNetworkEventID{VM: 7, GC: 5},
	})

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name       string
		orig, load *Log
	}{
		{"schedule", s.Schedule, loaded.Schedule},
		{"network", s.Network, loaded.Network},
		{"datagram", s.Datagram, loaded.Datagram},
	} {
		if pair.load.Len() != pair.orig.Len() {
			t.Errorf("%s: loaded Len() = %d, recorded %d", pair.name, pair.load.Len(), pair.orig.Len())
		}
		if pair.load.Size() != pair.orig.Size() {
			t.Errorf("%s: loaded Size() = %d, recorded %d", pair.name, pair.load.Size(), pair.orig.Size())
		}
	}
}

// TestLoadSetRejectsCorruptStream: a truncated log must fail at load time with
// ErrCorrupt, not surface later as a bad index.
func TestLoadSetRejectsCorruptStream(t *testing.T) {
	s := NewSet()
	s.Schedule.Append(&Interval{Thread: 1, First: 0, Last: 3})
	s.Schedule.Append(&VMMeta{VM: 1, Threads: 1, FinalGC: 4})
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate the schedule log mid-record.
	data := s.Schedule.Bytes()
	if err := (&Log{chunks: [][]byte{data[:len(data)-1]}}).SaveFile(dir + "/schedule.log"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSet(dir); err == nil {
		t.Fatal("LoadSet accepted a truncated schedule log")
	}
}

// TestSetObserverContract pins the observer installation rules: installing on
// an empty log is allowed, removing (nil) is always allowed, and installing
// once records exist panics instead of silently under-counting.
func TestSetObserverContract(t *testing.T) {
	l := NewLog()
	var seen int
	l.SetObserver(func(n int) { seen += n })
	l.Append(&Interval{Thread: 1, First: 0, Last: 0})
	if seen != l.Size() {
		t.Errorf("observer saw %d bytes, log holds %d", seen, l.Size())
	}

	l.SetObserver(nil) // removal is always fine
	l.Append(&Interval{Thread: 1, First: 1, Last: 1})
	if seen == l.Size() {
		t.Error("removed observer still invoked")
	}

	defer func() {
		if recover() == nil {
			t.Error("SetObserver on a non-empty log did not panic")
		}
	}()
	l.SetObserver(func(int) {})
}
