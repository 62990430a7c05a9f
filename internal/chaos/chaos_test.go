package chaos

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

var (
	peers = []string{"p1", "p2"}
	// loneOpts is the one-member case; groupOpts the three-member one.
	loneOpts  = Options{Members: []string{"prim"}, Hosts: peers, Horizon: 2000}
	groupOpts = Options{Members: []string{"m1", "m2", "m3"}, Hosts: peers, Horizon: 2000}
)

func TestGenerateDeterministic(t *testing.T) {
	for _, opts := range []Options{loneOpts, groupOpts} {
		for seed := uint64(1); seed <= 50; seed++ {
			a, err := Generate(seed, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			b, err := Generate(seed, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if string(a.Encode()) != string(b.Encode()) {
				t.Fatalf("seed %d expands to different plans across calls", seed)
			}
			if len(a.Kills) == 0 || len(a.Kills) > 2 {
				t.Fatalf("seed %d: %d kills, want 1 or 2", seed, len(a.Kills))
			}
			if len(opts.Members) > 1 && len(a.Kills) >= len(opts.Members) {
				t.Fatalf("seed %d: plan kills the whole group", seed)
			}
			for _, k := range a.Kills {
				if k.At < 2000/4 || k.At >= 3*2000/4+1 {
					t.Fatalf("seed %d: kill at %d outside the middle band of the horizon", seed, k.At)
				}
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	seen := map[string]uint64{}
	for seed := uint64(1); seed <= 20; seed++ {
		p, err := Generate(seed, loneOpts)
		if err != nil {
			t.Fatal(err)
		}
		enc := string(p.Encode())
		if prev, dup := seen[enc]; dup {
			t.Fatalf("seeds %d and %d expand to the identical plan", prev, seed)
		}
		seen[enc] = seed
	}
}

// scheduleString renders a plan's kills, partition windows and loss epochs —
// everything the pre-merge group generator drew — in the format of
// testdata/parent_group_plans.txt. Peer crashes, which only the merged
// generator adds, are left out.
func scheduleString(p Plan) string {
	var b strings.Builder
	for _, k := range p.Kills {
		fmt.Fprintf(&b, " kill:%d@%d", k.Member, k.At)
	}
	for _, a := range p.Actions {
		switch a.Kind {
		case ActPartition:
			fmt.Fprintf(&b, " part:%s|%s@%d-%d", strings.Join(a.Hosts, ","), strings.Join(a.HostsB, ","), a.At, a.Until)
		case ActLinkLoss:
			fmt.Fprintf(&b, " loss:%s>%s@%d-%d*%s", a.From, a.To, a.At, a.Until, strconv.FormatFloat(a.Rate, 'x', -1, 64))
		}
	}
	return b.String()
}

// The merged generator must keep the group campaign's schedules: for members
// m1..m3, seeds 1–50 and Kills 0..2, the kills, partition windows and loss
// epochs equal what GenerateGroup produced before the merge (captured from
// that commit into testdata), so the new schedules are a superset — the old
// ones plus an occasional peer crash — not a reshuffle.
func TestGenerateKeepsParentGroupSchedules(t *testing.T) {
	f, err := os.Open("testdata/parent_group_plans.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var seed uint64
		var kills int
		head, want, _ := strings.Cut(sc.Text(), " kill:")
		if _, err := fmt.Sscanf(head, "seed=%d kills=%d", &seed, &kills); err != nil {
			t.Fatalf("bad golden row %q: %v", sc.Text(), err)
		}
		want = " kill:" + want
		opts := groupOpts
		opts.Kills = kills
		p, err := Generate(seed, opts)
		if err != nil {
			t.Fatalf("seed %d kills %d: %v", seed, kills, err)
		}
		if got := scheduleString(p); got != want {
			t.Errorf("seed %d kills %d:\n got %s\nwant %s", seed, kills, got, want)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 150 {
		t.Fatalf("golden file has %d rows, want 150", rows)
	}
}

// Every action kind either pre-merge generator drew is still drawn, for a
// lone member and for a group — including the post-kill peer crash only the
// single-VM generator emitted.
func TestGenerateDrawsEveryActionKind(t *testing.T) {
	for _, opts := range []Options{loneOpts, groupOpts} {
		seen := map[ActionKind]int{}
		for seed := uint64(1); seed <= 50; seed++ {
			p, err := Generate(seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			var lastKill ids.GCount
			for _, k := range p.Kills {
				if k.At > lastKill {
					lastKill = k.At
				}
			}
			for _, a := range p.Actions {
				seen[a.Kind]++
				if a.Kind == ActCrash && a.At <= lastKill {
					t.Errorf("seed %d: peer crash at %d not after the last kill at %d", seed, a.At, lastKill)
				}
			}
		}
		for _, k := range []ActionKind{ActCrash, ActPartition, ActLinkLoss} {
			if seen[k] == 0 {
				t.Errorf("%d member(s): no %v action in 50 seeds", len(opts.Members), k)
			}
		}
	}
}

// A horizon too small to place a window is an error, not an Int63n panic.
func TestGenerateRejectsSmallHorizon(t *testing.T) {
	for _, base := range []Options{loneOpts, groupOpts} {
		for h := ids.GCount(0); h < 8; h++ {
			for seed := uint64(0); seed < 20; seed++ {
				opts := base
				opts.Horizon = h
				if _, err := Generate(seed, opts); err == nil || !strings.Contains(err.Error(), "horizon") {
					t.Fatalf("horizon %d seed %d: err = %v, want a horizon error", h, seed, err)
				}
			}
		}
		for seed := uint64(0); seed < 20; seed++ {
			opts := base
			opts.Horizon = 8
			if _, err := Generate(seed, opts); err != nil {
				t.Fatalf("horizon 8 seed %d: %v", seed, err)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, opts := range []Options{loneOpts, groupOpts} {
		for seed := uint64(1); seed <= 50; seed++ {
			p, err := Generate(seed, opts)
			if err != nil {
				t.Fatal(err)
			}
			q, err := DecodePlan(p.Encode())
			if err != nil {
				t.Fatalf("seed %d: decode: %v", seed, err)
			}
			if string(q.Encode()) != string(p.Encode()) {
				t.Fatalf("seed %d: decode(encode(p)) != p", seed)
			}
		}
	}
}

func TestDecodeRejectsMangledPlans(t *testing.T) {
	p, err := Generate(3, loneOpts)
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode()
	if _, err := DecodePlan(enc[:len(enc)-1]); err == nil {
		t.Error("truncated encoding accepted")
	}
	if _, err := DecodePlan(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// legacySinglePlan is a spec in the encoding single-VM plans used before the
// single and group layouts merged: seed, kill counter, action count — no
// magic.
func legacySinglePlan(seed, killAt uint64) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint64(b, killAt)
	return binary.LittleEndian.AppendUint32(b, 0)
}

func TestDecodeRejectsLegacySinglePlan(t *testing.T) {
	if _, err := DecodePlan(legacySinglePlan(7, 900)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("legacy single-VM spec: err = %v, want a missing-magic error", err)
	}
}

func TestPlanFromSetReportsLegacySinglePlan(t *testing.T) {
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, World: ids.OpenWorld})
	set.Schedule.Append(&tracelog.ChaosPlanEntry{Seed: 7, Spec: legacySinglePlan(7, 900)})
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 0})
	if _, ok, err := PlanFromSet(set); err == nil || ok {
		t.Fatalf("legacy spec in a trace: ok=%v err=%v, want an error", ok, err)
	}
}

// Replay never reads the plan record, so a log carrying a legacy spec the
// decoder now rejects still replays.
func TestLegacySinglePlanLogStillReplays(t *testing.T) {
	app := func(sum *int64) func(*core.Thread) {
		return func(main *core.Thread) {
			var x core.SharedInt
			for i := 0; i < 20; i++ {
				x.Set(main, x.Get(main)+int64(i))
			}
			*sum = x.Get(main)
		}
	}
	rec, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	rec.Logs().Schedule.Append(&tracelog.ChaosPlanEntry{Seed: 7, Spec: legacySinglePlan(7, 900)})
	var recorded, replayed int64
	rec.Start(app(&recorded))
	rec.Wait()
	rec.Close()

	rep, err := core.NewVM(core.Config{
		ID: 1, Mode: ids.Replay, ReplayLogs: rec.Logs(), StallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("replay of a log with a legacy plan record: %v", err)
	}
	rep.Start(app(&replayed))
	rep.Wait()
	if replayed != recorded {
		t.Fatalf("replayed %d, recorded %d", replayed, recorded)
	}
}

func TestValidateRejections(t *testing.T) {
	one := []string{"prim"}
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"no members", Plan{}, "no members"},
		{"kill outside group", Plan{Members: one, Kills: []Kill{{Member: 1, At: 5}}}, "outside group"},
		{"kill twice", Plan{Members: one, Kills: []Kill{{Member: 0, At: 5}, {Member: 0, At: 9}}}, "killed twice"},
		{"kill at zero", Plan{Members: one, Kills: []Kill{{Member: 0}}}, "not positive"},
		{"crash member", Plan{Members: one, Actions: []Action{
			{Kind: ActCrash, At: 1, Hosts: []string{"prim"}},
		}}, "cannot crash member"},
		{"crash no host", Plan{Members: one, Actions: []Action{
			{Kind: ActCrash, At: 1},
		}}, "exactly one host"},
		{"partition shared host", Plan{Members: one, Actions: []Action{
			{Kind: ActPartition, At: 1, Until: 2, Hosts: []string{"a"}, HostsB: []string{"a"}},
		}}, "both sides"},
		{"partition empty window", Plan{Members: one, Actions: []Action{
			{Kind: ActPartition, At: 5, Until: 5, Hosts: []string{"a"}, HostsB: []string{"b"}},
		}}, "empty"},
		{"loss rate out of range", Plan{Members: one, Actions: []Action{
			{Kind: ActLinkLoss, At: 1, Until: 2, From: "a", To: "b", Rate: 1.5},
		}}, "outside [0,1]"},
		{"loss rate NaN", Plan{Members: one, Actions: []Action{
			{Kind: ActLinkLoss, At: 1, Until: 2, From: "a", To: "b", Rate: math.NaN()},
		}}, "outside [0,1]"},
		{"unknown kind", Plan{Members: one, Actions: []Action{
			{Kind: ActionKind(99), At: 1},
		}}, "unknown kind"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
		// What Validate rejects, the decoder and the engine reject too.
		if _, err := DecodePlan(tc.plan.Encode()); err == nil {
			t.Errorf("%s: DecodePlan accepted an invalid plan", tc.name)
		}
	}
}

// FuzzDecodePlan: the decoder never panics on hostile bytes, and whatever it
// accepts is a valid plan in canonical form.
func FuzzDecodePlan(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, opts := range []Options{loneOpts, groupOpts} {
			p, err := Generate(seed, opts)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(p.Encode())
		}
	}
	f.Add(legacySinglePlan(7, 900))
	f.Add(Plan{Members: []string{"a"}, Actions: []Action{
		{Kind: ActLinkLoss, At: 1, Until: 2, From: "a", To: "b", Rate: math.NaN()},
	}}.Encode())
	f.Add([]byte("DJGP1\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlan(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan does not validate: %v", err)
		}
		if got := p.Encode(); string(got) != string(data) {
			t.Fatalf("accepted encoding is not canonical:\n in %x\nout %x", data, got)
		}
	})
}

// Overlapping partition windows are valid since netsim heals per handle: a
// pair cut by two windows stays cut until the LAST covering window ends, and
// a pair cut by only the longer window is unaffected by the shorter's heal.
func TestOverlappingPartitionWindows(t *testing.T) {
	p := Plan{Members: []string{"prim"}, Actions: []Action{
		{Kind: ActPartition, At: 10, Until: 40, Hosts: []string{"a"}, HostsB: []string{"b", "c"}},
		{Kind: ActPartition, At: 20, Until: 60, Hosts: []string{"a"}, HostsB: []string{"b"}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatalf("overlapping windows must validate, got %v", err)
	}

	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	eng, err := NewEngine(p, net)
	if err != nil {
		t.Fatal(err)
	}
	obs := eng.Observer(0)
	step := func(gc ids.GCount) { obs(0, gc) }

	step(15) // first window open
	if !net.Partitioned("a", "b") || !net.Partitioned("a", "c") {
		t.Fatal("first window did not cut a-b and a-c")
	}
	step(25) // both windows open: a-b cut twice
	step(45) // first window healed; second still covers a-b
	if !net.Partitioned("a", "b") {
		t.Fatal("a-b healed early: overlapping window's cut was removed by the other's heal")
	}
	if net.Partitioned("a", "c") {
		t.Fatal("a-c still cut after its only covering window healed")
	}
	step(65) // second window healed
	if net.Partitioned("a", "b") {
		t.Fatal("a-b still cut after every covering window healed")
	}
}

func TestRecordPlanRoundTrip(t *testing.T) {
	p, err := Generate(11, loneOpts)
	if err != nil {
		t.Fatal(err)
	}
	set := tracelog.NewSet()
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, World: ids.OpenWorld})
	Record(set, p)
	set.Schedule.Append(&tracelog.Interval{Thread: 0, First: 0, Last: 0})
	set.Schedule.Append(&tracelog.VMMeta{VM: 1, Threads: 1, FinalGC: 1})

	q, ok, err := PlanFromSet(set)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("recorded plan not found")
	}
	if string(q.Encode()) != string(p.Encode()) {
		t.Fatal("recorded plan does not round-trip")
	}

	empty := tracelog.NewSet()
	empty.Schedule.Append(&tracelog.VMMeta{VM: 2, Threads: 1, FinalGC: 0})
	if _, ok, err := PlanFromSet(empty); err != nil || ok {
		t.Fatalf("plan-less set: ok=%v err=%v, want false/nil", ok, err)
	}
}

// A plan stamped into a WAL-backed recording survives a truncation at a
// checkpoint anchor and the salvage of the compacted file: the recovered set
// still carries the same plan.
func TestRecordedPlanSurvivesTruncation(t *testing.T) {
	p, err := Generate(5, loneOpts)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(t.TempDir(), "node.wal")
	vm, err := core.NewVM(core.Config{ID: 1, Mode: ids.Record})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.EnableWAL(walPath, tracelog.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	Record(vm.Logs(), p)
	vm.Start(func(main *core.Thread) {
		var x core.SharedInt
		for r := 0; r < 3; r++ {
			for i := 0; i < 5; i++ {
				x.Set(main, x.Get(main)+1)
			}
			checkpoint.Take(main, func() []byte { return []byte("state") })
		}
	})
	vm.Wait()
	st, err := vm.TruncateWAL(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseGC == 0 {
		t.Fatal("truncation anchored at zero")
	}
	vm.Close()

	set, _, err := tracelog.RecoverFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	q, ok, err := PlanFromSet(set)
	if err != nil || !ok {
		t.Fatalf("plan lost in truncation: ok=%v err=%v", ok, err)
	}
	if string(q.Encode()) != string(p.Encode()) {
		t.Fatal("recovered plan differs from the recorded one")
	}
}

// observe reports one event to a member's observer and tells whether the
// observer killed the member: panicked core.Crash.
func observe(obs func(ids.ThreadNum, ids.GCount), gc ids.GCount) (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(core.Crash); !ok {
				panic(r)
			}
			killed = true
		}
	}()
	obs(0, gc)
	return false
}

// The engine must fire each action at its counter, in order, and crash the
// member once its counter reaches its kill point.
func TestEngineFiresInCounterOrder(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	plan := Plan{
		Seed:    1,
		Members: []string{"prim"},
		Kills:   []Kill{{Member: 0, At: 100}},
		Actions: []Action{
			{Kind: ActPartition, At: 10, Until: 20, Hosts: []string{"prim"}, HostsB: []string{"p1"}},
			{Kind: ActLinkLoss, At: 30, Until: 40, From: "p1", To: "prim", Rate: 0.5},
			{Kind: ActCrash, At: 120, Hosts: []string{"p1"}},
		},
	}
	eng, err := NewEngine(plan, net)
	if err != nil {
		t.Fatal(err)
	}
	obs := eng.Observer(0)

	observe(obs, 5)
	if got := net.FaultStats(); got.PartitionedPairs != 0 {
		t.Fatal("partition fired early")
	}
	observe(obs, 10)
	if got := net.FaultStats(); got.PartitionedPairs != 1 {
		t.Fatal("partition did not fire at its counter")
	}
	observe(obs, 25) // heal point (20) passed while no event landed exactly on it
	if got := net.FaultStats(); got.PartitionedPairs != 0 {
		t.Fatal("heal did not catch up after its counter passed")
	}
	if observe(obs, 99) {
		t.Fatal("killed before the kill point")
	}
	if !observe(obs, 100) {
		t.Fatal("kill did not fire at the kill point")
	}
}

// With several members the first member whose counter reaches a network
// action fires it — a member stuck at a low counter must not strand a heal —
// while each kill stays on its own member's clock.
func TestEngineHighWaterAcrossMembers(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	plan := Plan{
		Members: []string{"m1", "m2"},
		Kills:   []Kill{{Member: 0, At: 50}},
		Actions: []Action{
			{Kind: ActPartition, At: 10, Until: 30, Hosts: []string{"m1"}, HostsB: []string{"m2"}},
		},
	}
	eng, err := NewEngine(plan, net)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := eng.Observer(0), eng.Observer(1)
	observe(m1, 12)
	if !net.Partitioned("m1", "m2") {
		t.Fatal("partition did not fire off m1's clock")
	}
	if observe(m2, 60) { // m1 is stuck at 12; m2 passes the heal
		t.Fatal("m2 passing counter 50 fired m1's kill")
	}
	if net.Partitioned("m1", "m2") {
		t.Fatal("heal stranded behind the slower member's clock")
	}
	if !observe(m1, 50) {
		t.Fatal("m1's kill did not fire at its own counter")
	}
}

// Three members' observers race through a plan's points (run it under
// -race): each point fires exactly once, in counter order, so every
// partition is installed before its heal and none is left standing.
func TestEngineRacingMembersFireEachPointOnce(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	members := []string{"m1", "m2", "m3"}
	plan := Plan{Members: members}
	for at := ids.GCount(10); at < 2000; at += 40 {
		plan.Actions = append(plan.Actions,
			Action{Kind: ActPartition, At: at, Until: at + 25, Hosts: members[:1], HostsB: members[1:]},
			Action{Kind: ActLinkLoss, At: at + 5, Until: at + 60, From: "m2", To: "m3", Rate: 0.5})
	}
	eng, err := NewEngine(plan, net)
	if err != nil {
		t.Fatal(err)
	}
	// Record the point indexes in firing order (points fire under eng.mu);
	// the last point is never due.
	var fired []int
	for i := range eng.points[:len(eng.points)-1] {
		i, fn := i, eng.points[i].fn
		eng.points[i].fn = func() {
			fired = append(fired, i)
			fn()
		}
	}
	var wg sync.WaitGroup
	for m := range members {
		obs := eng.Observer(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gc := ids.GCount(0); gc < 2100; gc++ {
				obs(0, gc)
			}
		}()
	}
	wg.Wait()
	if len(fired) != len(eng.points)-1 {
		t.Fatalf("%d points fired, want each of %d once", len(fired), len(eng.points)-1)
	}
	for i, p := range fired {
		if p != i {
			t.Fatalf("points fired in order %v, want counter order", fired)
		}
	}
	if st := net.FaultStats(); st.PartitionedPairs != 0 {
		t.Fatalf("%d pairs still partitioned after every heal", st.PartitionedPairs)
	}
}

// BenchmarkEngineObserver is the engine's cost on an event no point is due
// at: three members report events in parallel, far below the plan's only
// point.
func BenchmarkEngineObserver(b *testing.B) {
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	plan := Plan{Members: []string{"m1", "m2", "m3"}, Actions: []Action{
		{Kind: ActLinkLoss, At: 1 << 60, Until: 1<<60 + 1, From: "m1", To: "m2", Rate: 0.5},
	}}
	eng, err := NewEngine(plan, net)
	if err != nil {
		b.Fatal(err)
	}
	var member atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		obs := eng.Observer(int(member.Add(1)-1) % 3)
		for gc := ids.GCount(0); pb.Next(); gc++ {
			obs(0, gc)
		}
	})
}

func TestEngineRejectsInvalidPlan(t *testing.T) {
	net := netsim.NewNetwork(netsim.Config{Seed: 1})
	bad := Plan{Members: []string{"prim"}, Actions: []Action{{Kind: ActCrash, At: 1, Hosts: []string{"prim"}}}}
	if _, err := NewEngine(bad, net); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
