package rudp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
)

func pair(t *testing.T, chaos netsim.Chaos, seed int64) (*netsim.Network, *Conn, *Conn) {
	t.Helper()
	net := netsim.NewNetwork(netsim.Config{Chaos: chaos, Seed: seed})
	rxSock, err := net.DatagramBind("rx", 100)
	if err != nil {
		t.Fatal(err)
	}
	txSock, err := net.DatagramBind("tx", 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{interval: 300 * time.Microsecond}
	return net, New(rxSock, cfg), New(txSock, cfg)
}

func lossy() netsim.Chaos {
	return netsim.Chaos{
		LossRate:        0.3,
		DupRate:         0.3,
		ReorderRate:     0.5,
		DeliverDelayMax: 100 * time.Microsecond,
	}
}

func TestReliableDeliveryUnderHeavyLoss(t *testing.T) {
	net, rx, tx := pair(t, lossy(), 17)
	defer rx.Close()
	defer tx.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := tx.SendTo(net, netsim.Addr{Host: "rx", Port: 100}, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	got := map[int]int{}
	for i := 0; i < n; i++ {
		pkt, err := rx.Receive()
		if err != nil {
			t.Fatal(err)
		}
		v := int(pkt.Data[0]) | int(pkt.Data[1])<<8
		got[v]++
	}
	if len(got) != n {
		t.Fatalf("delivered %d distinct datagrams, want %d", len(got), n)
	}
	for v, c := range got {
		if c != 1 {
			t.Errorf("datagram %d delivered %d times (dedup failed)", v, c)
		}
	}
	st := tx.Stats()
	if st.Retransmits == 0 {
		t.Error("no retransmissions under 30% loss — reliability untested")
	}
	if err := tx.Flush(); err != nil {
		t.Errorf("Flush under 30%% loss = %v, want nil (datagrams abandoned?)", err)
	}
	if out := tx.Outstanding(); out != 0 {
		t.Errorf("%d datagrams still unacknowledged after Flush", out)
	}
}

func TestDeliveryExactlyOnceProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		n := int(count%50) + 1
		net, rx, tx := pairNoT(lossy(), seed)
		defer rx.Close()
		defer tx.Close()
		for i := 0; i < n; i++ {
			if err := tx.SendTo(net, netsim.Addr{Host: "rx", Port: 100}, []byte{byte(i)}); err != nil {
				return false
			}
		}
		seen := map[byte]bool{}
		for i := 0; i < n; i++ {
			pkt, err := rx.Receive()
			if err != nil {
				return false
			}
			if seen[pkt.Data[0]] {
				return false // duplicate delivery
			}
			seen[pkt.Data[0]] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func pairNoT(chaos netsim.Chaos, seed int64) (*netsim.Network, *Conn, *Conn) {
	net := netsim.NewNetwork(netsim.Config{Chaos: chaos, Seed: seed})
	rxSock, _ := net.DatagramBind("rx", 100)
	txSock, _ := net.DatagramBind("tx", 200)
	cfg := Config{interval: 300 * time.Microsecond}
	return net, New(rxSock, cfg), New(txSock, cfg)
}

func TestMulticastFanOut(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Chaos: lossy(), Seed: 23})
	cfg := Config{interval: 300 * time.Microsecond}
	var members []*Conn
	for i := 0; i < 3; i++ {
		sock, err := net.DatagramBind(fmt.Sprintf("m%d", i), 700)
		if err != nil {
			t.Fatal(err)
		}
		if err := sock.JoinGroup("grp"); err != nil {
			t.Fatal(err)
		}
		members = append(members, New(sock, cfg))
	}
	txSock, _ := net.DatagramBind("tx", 0)
	tx := New(txSock, cfg)
	defer tx.Close()
	for _, m := range members {
		defer m.Close()
	}

	const n = 20
	for i := 0; i < n; i++ {
		if err := tx.SendTo(net, netsim.Addr{Host: "grp", Port: 700}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for mi, m := range members {
		seen := map[byte]bool{}
		for i := 0; i < n; i++ {
			pkt, err := m.Receive()
			if err != nil {
				t.Fatalf("member %d: %v", mi, err)
			}
			seen[pkt.Data[0]] = true
		}
		if len(seen) != n {
			t.Errorf("member %d saw %d distinct datagrams, want %d", mi, len(seen), n)
		}
	}
}

func TestCloseUnblocksReceive(t *testing.T) {
	net, rx, tx := pair(t, netsim.Chaos{}, 1)
	defer tx.Close()
	done := make(chan error, 1)
	go func() {
		_, err := rx.Receive()
		done <- err
	}()
	time.Sleep(time.Millisecond)
	rx.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("receive after close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receive not unblocked by close")
	}
	if err := rx.SendTo(net, netsim.Addr{Host: "tx", Port: 200}, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
}

func TestNonRudpFramesIgnored(t *testing.T) {
	net, rx, _ := pair(t, netsim.Chaos{}, 2)
	defer rx.Close()
	// A bare socket sends a short junk frame directly at the rudp port.
	junkSock, err := net.DatagramBind("junk", 0)
	if err != nil {
		t.Fatal(err)
	}
	junkSock.SendTo(netsim.Addr{Host: "rx", Port: 100}, []byte{1, 2})
	net.Quiesce()

	got := make(chan struct{}, 1)
	go func() {
		rx.Receive()
		got <- struct{}{}
	}()
	select {
	case <-got:
		t.Fatal("junk frame delivered as application datagram")
	case <-time.After(20 * time.Millisecond):
		// Correct: junk dropped, Receive still blocked.
	}
}

// TestSendToCrashedHostUnreachable is the regression test for the unbounded
// retransmission bug: before the retry budget existed, a send to a crashed
// host retransmitted every 2ms forever and Flush never returned. Now the
// sender must give up after its fixed budget of maxRetries resends and report
// ErrPeerUnreachable.
func TestSendToCrashedHostUnreachable(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{})
	rxSock, err := net.DatagramBind("rx", 100)
	if err != nil {
		t.Fatal(err)
	}
	_ = rxSock
	txSock, err := net.DatagramBind("tx", 200)
	if err != nil {
		t.Fatal(err)
	}
	var unreachable []netsim.Addr
	var mu sync.Mutex
	tx := New(txSock, Config{
		interval: 200 * time.Microsecond,
		OnUnreachable: func(dest netsim.Addr) {
			mu.Lock()
			unreachable = append(unreachable, dest)
			mu.Unlock()
		},
	})
	defer tx.Close()

	net.CrashHost("rx")
	dest := netsim.Addr{Host: "rx", Port: 100}
	if err := tx.SendTo(net, dest, []byte("into the void")); err != nil {
		t.Fatalf("first send: %v (blackhole expected, not an error)", err)
	}

	// The budget: 12 retries with 2x backoff from 200us, capped at 64x, is
	// ~102ms plus jitter. Anything near the old infinite loop trips this
	// deadline.
	flushed := make(chan error, 1)
	go func() { flushed <- tx.Flush() }()
	select {
	case err := <-flushed:
		if !errors.Is(err, ErrPeerUnreachable) {
			t.Fatalf("Flush after crash = %v, want ErrPeerUnreachable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not return within budget — unbounded retransmission")
	}

	if !tx.Unreachable(dest) {
		t.Error("destination not marked unreachable")
	}
	// Subsequent sends to the dead destination fail fast.
	if err := tx.SendTo(net, dest, []byte("again")); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("send to unreachable dest = %v, want fast ErrPeerUnreachable", err)
	}
	// Other destinations are unaffected.
	if tx.Unreachable(netsim.Addr{Host: "tx", Port: 200}) {
		t.Error("unrelated destination marked unreachable")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(unreachable) != 1 || unreachable[0] != dest {
		t.Errorf("OnUnreachable calls = %v, want exactly [%v]", unreachable, dest)
	}
	if st := tx.Stats(); st.Abandoned != 1 || st.Retransmits != maxRetries {
		t.Errorf("Stats = %+v, want Abandoned 1, Retransmits %d", tx.Stats(), maxRetries)
	}
}

func TestStatsAccounting(t *testing.T) {
	net, rx, tx := pair(t, netsim.Chaos{}, 3)
	defer rx.Close()
	defer tx.Close()
	const n = 10
	for i := 0; i < n; i++ {
		tx.SendTo(net, netsim.Addr{Host: "rx", Port: 100}, []byte{byte(i)})
	}
	for i := 0; i < n; i++ {
		if _, err := rx.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	txSt, rxSt := tx.Stats(), rx.Stats()
	if txSt.DataSent != n {
		t.Errorf("DataSent = %d, want %d", txSt.DataSent, n)
	}
	if rxSt.Delivered != n {
		t.Errorf("Delivered = %d, want %d", rxSt.Delivered, n)
	}
	if rxSt.AcksSent < n {
		t.Errorf("AcksSent = %d, want >= %d", rxSt.AcksSent, n)
	}
}

// The retransmit/backoff-cap hooks feed the obs fault counters: every resend
// of the fixed budget fires OnRetransmit, and OnBackoffCap fires exactly once
// per outstanding datagram when its interval first hits the ceiling.
func TestRetransmitAndBackoffCapHooks(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{})
	if _, err := net.DatagramBind("rx", 100); err != nil {
		t.Fatal(err)
	}
	txSock, err := net.DatagramBind("tx", 200)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var retransmits, capped int
	tx := New(txSock, Config{
		interval:     100 * time.Microsecond,
		OnRetransmit: func() { mu.Lock(); retransmits++; mu.Unlock() },
		OnBackoffCap: func() { mu.Lock(); capped++; mu.Unlock() },
	})
	defer tx.Close()

	net.CrashHost("rx")
	if err := tx.SendTo(net, netsim.Addr{Host: "rx", Port: 100}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Flush(); !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("Flush = %v, want ErrPeerUnreachable", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if retransmits != maxRetries {
		t.Errorf("OnRetransmit calls = %d, want %d (maxRetries)", retransmits, maxRetries)
	}
	if capped != 1 {
		t.Errorf("OnBackoffCap calls = %d, want exactly 1", capped)
	}
}
