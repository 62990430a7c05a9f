package netsim

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func calmNet() *Network { return NewNetwork(Config{}) }

func chaoticNet(seed int64) *Network {
	return NewNetwork(Config{
		Chaos: Chaos{
			ConnectDelayMax: time.Millisecond,
			DeliverDelayMax: 300 * time.Microsecond,
			MaxSegment:      5,
			RandomEphemeral: true,
		},
		Seed: seed,
	})
}

func TestStreamDeliversBytesInOrder(t *testing.T) {
	n := chaoticNet(1)
	l, err := n.Listen("s", 80)
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Connect("c", Addr{"s", 80})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	go func() {
		for i := 0; i < len(payload); i += 100 {
			end := min(i+100, len(payload))
			c.Write(payload[i:end])
		}
		c.Close()
	}()

	var got []byte
	buf := make([]byte, 37)
	for {
		k, err := srv.Read(buf)
		got = append(got, buf[:k]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stream reordered or lost bytes under chaotic fragmentation")
	}
}

func TestStreamOrderProperty(t *testing.T) {
	// Property: whatever the chaos seed and write slicing, the receiver sees
	// exactly the concatenation of writes.
	f := func(seed int64, chunks [][]byte) bool {
		n := chaoticNet(seed)
		l, err := n.Listen("s", 80)
		if err != nil {
			return false
		}
		c, err := n.Connect("c", Addr{"s", 80})
		if err != nil {
			return false
		}
		srv, err := l.Accept()
		if err != nil {
			return false
		}
		var want []byte
		for _, ch := range chunks {
			want = append(want, ch...)
		}
		go func() {
			for _, ch := range chunks {
				c.Write(ch)
			}
			c.Close()
		}()
		var got []byte
		buf := make([]byte, 64)
		for {
			k, err := srv.Read(buf)
			got = append(got, buf[:k]...)
			if err != nil {
				break
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConnectRefusedWithoutListener(t *testing.T) {
	n := calmNet()
	if _, err := n.Connect("c", Addr{"nowhere", 1}); !errors.Is(err, ErrRefused) {
		t.Errorf("connect to missing host: %v, want ErrRefused", err)
	}
	n.Listen("s", 80)
	if _, err := n.Connect("c", Addr{"s", 81}); !errors.Is(err, ErrRefused) {
		t.Errorf("connect to wrong port: %v, want ErrRefused", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := calmNet()
	l, err := n.Listen("s", 80)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("accept after close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept not unblocked by close")
	}
	// Port is released.
	if _, err := n.Listen("s", 80); err != nil {
		t.Errorf("port not released after close: %v", err)
	}
}

func TestPortAllocation(t *testing.T) {
	n := calmNet()
	if _, err := n.Listen("s", 80); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("s", 80); !errors.Is(err, ErrPortInUse) {
		t.Errorf("duplicate bind: %v, want ErrPortInUse", err)
	}
	// Same port on a different host is fine.
	if _, err := n.Listen("other", 80); err != nil {
		t.Errorf("same port other host: %v", err)
	}
	// Ephemeral ports are distinct.
	seen := map[uint16]bool{}
	for i := 0; i < 50; i++ {
		l, err := n.Listen("s", 0)
		if err != nil {
			t.Fatal(err)
		}
		p := l.Addr().Port
		if p < 49152 {
			t.Fatalf("ephemeral port %d below range", p)
		}
		if seen[p] {
			t.Fatalf("ephemeral port %d reused while open", p)
		}
		seen[p] = true
	}
}

func TestAvailableAndWaitAvailable(t *testing.T) {
	n := calmNet()
	l, _ := n.Listen("s", 80)
	c, err := n.Connect("c", Addr{"s", 80})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := l.Accept()
	if srv.Available() != 0 {
		t.Error("fresh stream has available bytes")
	}
	c.Write(make([]byte, 10))
	if got := srv.WaitAvailable(10); got < 10 {
		t.Errorf("WaitAvailable(10) = %d", got)
	}
	if srv.Available() != 10 {
		t.Errorf("Available = %d, want 10", srv.Available())
	}
	// WaitAvailable returns early at EOF even if the count is unreachable.
	c.Close()
	if got := srv.WaitAvailable(100); got != 10 {
		t.Errorf("WaitAvailable(100) after close = %d, want 10", got)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	n := calmNet()
	l, _ := n.Listen("s", 80)
	c, err := n.Connect("c", Addr{"s", 80})
	if err != nil {
		t.Fatal(err)
	}
	l.Accept()
	c.Close()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v, want ErrClosed", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestDatagramBasicDelivery(t *testing.T) {
	n := calmNet()
	rx, err := n.DatagramBind("rx", 100)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := n.DatagramBind("tx", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.SendTo(Addr{"rx", 100}, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	pkt, err := rx.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt.Data) != "ping" || pkt.Source != tx.Addr() {
		t.Errorf("got %q from %v", pkt.Data, pkt.Source)
	}
}

func TestDatagramLossDupReorder(t *testing.T) {
	const sent = 400
	n := NewNetwork(Config{
		Chaos: Chaos{LossRate: 0.3, DupRate: 0.3, ReorderRate: 0.5, DeliverDelayMax: 200 * time.Microsecond},
		Seed:  3,
	})
	rx, _ := n.DatagramBind("rx", 100)
	tx, _ := n.DatagramBind("tx", 0)
	for i := 0; i < sent; i++ {
		if err := tx.SendTo(Addr{"rx", 100}, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	n.Quiesce()
	got := rx.Pending()
	if got == sent {
		t.Error("no loss or duplication observed with 30% rates")
	}
	counts := map[int]int{}
	reordered := false
	last := -1
	for rx.Pending() > 0 {
		pkt, _, err := rx.TryReceive()
		if err != nil || len(pkt.Data) != 2 {
			t.Fatal("bad packet")
		}
		v := int(pkt.Data[0]) | int(pkt.Data[1])<<8
		counts[v]++
		if v < last {
			reordered = true
		}
		last = v
	}
	dup := false
	for _, c := range counts {
		if c > 1 {
			dup = true
		}
	}
	if len(counts) == sent && !dup && !reordered {
		t.Error("chaos produced perfectly reliable in-order delivery")
	}
}

func TestDatagramTooLarge(t *testing.T) {
	n := NewNetwork(Config{MaxDatagram: 64})
	tx, _ := n.DatagramBind("tx", 0)
	if err := tx.SendTo(Addr{"rx", 1}, make([]byte, 65)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized send: %v, want ErrTooLarge", err)
	}
}

func TestMulticastGroups(t *testing.T) {
	n := calmNet()
	var members [3]*DatagramSocket
	for i := range members {
		m, err := n.DatagramBind(string(rune('a'+i))+"-host", 500)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.JoinGroup("grp"); err != nil {
			t.Fatal(err)
		}
		members[i] = m
	}
	// One member on a different port must not receive.
	odd, _ := n.DatagramBind("d-host", 501)
	odd.JoinGroup("grp")

	if !n.IsGroup("grp") {
		t.Error("grp not recognized as a group")
	}
	if got := len(n.GroupMembers("grp", 500)); got != 3 {
		t.Errorf("GroupMembers(500) = %d, want 3", got)
	}

	tx, _ := n.DatagramBind("tx", 0)
	if err := tx.SendTo(Addr{"grp", 500}, []byte("mc")); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	for i, m := range members {
		if m.Pending() != 1 {
			t.Errorf("member %d has %d packets, want 1", i, m.Pending())
		}
	}
	if odd.Pending() != 0 {
		t.Error("wrong-port member received group datagram")
	}

	members[0].LeaveGroup("grp")
	if got := len(n.GroupMembers("grp", 500)); got != 2 {
		t.Errorf("after leave, GroupMembers = %d, want 2", got)
	}
	members[0].Close()
	members[1].Close()
	members[2].Close()
	odd.Close()
	if n.IsGroup("grp") {
		t.Error("group survives all members closing")
	}
}

func TestDatagramCloseUnblocksReceive(t *testing.T) {
	n := calmNet()
	rx, _ := n.DatagramBind("rx", 100)
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
}

func TestConcurrentConnectsAllAccepted(t *testing.T) {
	n := chaoticNet(11)
	l, _ := n.Listen("s", 80)
	const conns = 20
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Connect("c", Addr{"s", 80}); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < conns; i++ {
		if _, err := l.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestBacklogCount(t *testing.T) {
	n := calmNet()
	l, _ := n.Listen("s", 80)
	for i := 0; i < 3; i++ {
		if _, err := n.Connect("c", Addr{"s", 80}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Backlog(); got != 3 {
		t.Errorf("backlog %d, want 3", got)
	}
}

func TestChaosSeedsAreDeterministicForDecisions(t *testing.T) {
	// Two networks with the same seed drop the same datagrams when driven
	// sequentially from one goroutine.
	run := func() []bool {
		n := NewNetwork(Config{Chaos: Chaos{LossRate: 0.5}, Seed: 99})
		rx, _ := n.DatagramBind("rx", 1)
		tx, _ := n.DatagramBind("tx", 0)
		var pattern []bool
		for i := 0; i < 60; i++ {
			tx.SendTo(Addr{"rx", 1}, []byte{byte(i)})
			n.Quiesce()
			_, ok, _ := rx.TryReceive()
			pattern = append(pattern, ok)
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at send %d", i)
		}
	}
}

func TestRandNBounds(t *testing.T) {
	// randN draws from the network's seeded source: the same draws as a
	// fresh source with the same seed.
	n := NewNetwork(Config{Seed: 5})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		v := n.randN(7)
		if v < 1 || v > 7 {
			t.Fatalf("randN(7) = %d", v)
		}
		if want := 1 + rng.Intn(7); v != want {
			t.Fatalf("draw %d: randN(7) = %d, the reference source gives %d", i, v, want)
		}
	}
	if n.randN(0) != 1 || n.randN(1) != 1 {
		t.Error("randN lower bound broken")
	}
}

// TestSeededDelaysArePinned: a seeded network draws the same chaos delays,
// release to release — each of the first 64 connect and deliver delays for
// one seed and bound, drawn in turn, is pinned here. A change to how delay
// draws moves every seeded run's chaos decisions and shows up first here.
func TestSeededDelaysArePinned(t *testing.T) {
	const max = 500 * time.Microsecond
	n := NewNetwork(Config{Chaos: Chaos{ConnectDelayMax: max, DeliverDelayMax: max}, Seed: 36})
	connect := []time.Duration{
		252503, 495521, 428104, 344957, 253309, 235635, 294018, 159291, 110573,
		247508, 333063, 160843, 336110, 334620, 263224, 400747, 482638, 335160,
		90206, 250509, 29530, 67428, 113946, 301363, 407208, 249058, 137587,
		272454, 147633, 282830, 217983, 473721, 309813, 410055, 195789, 391804,
		63372, 65314, 150545, 350177, 433399, 262483, 116912, 437391, 339084,
		186685, 45070, 469641, 364624, 60223, 285621, 6866, 383022, 142527, 320940,
		134986, 407110, 381803, 271248, 41272, 388825, 107899, 351458, 326598,
	}
	deliver := []time.Duration{
		483884, 185520, 452660, 219316, 8068, 349873, 475662, 35866, 258186,
		168291, 398511, 260214, 306633, 209291, 470701, 284864, 245056, 405106,
		203654, 193864, 155567, 208104, 494794, 275244, 184900, 37609, 254411,
		467196, 45710, 164454, 442232, 2608, 77055, 77255, 464638, 196232, 451940,
		12173, 309317, 457096, 489258, 489341, 59557, 495040, 86564, 100179,
		440741, 385138, 479743, 38370, 316333, 196814, 76327, 148877, 63541,
		295514, 322372, 94341, 181739, 200473, 275151, 8653, 339895, 173727,
	}
	for i := range connect {
		if got := n.delay(n.chaos.ConnectDelayMax); got != connect[i] {
			t.Fatalf("connect delay %d = %d, want %d", i, got, connect[i])
		}
		if got := n.delay(n.chaos.DeliverDelayMax); got != deliver[i] {
			t.Fatalf("deliver delay %d = %d, want %d", i, got, deliver[i])
		}
	}
	if got := n.delay(0); got != 0 {
		t.Errorf("delay with no bound = %v, want 0", got)
	}
}
