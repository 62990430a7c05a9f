// Package chaos is a seeded, declarative fault-schedule engine for record
// phase soak testing, in the spirit of rr's chaos mode: a single seed expands
// deterministically into a schedule of kill/crash/partition/link-loss actions
// keyed to the recording VMs' global counters, the schedule drives the netsim
// fault plan as the counters advance, and the schedule itself is recorded
// into the trace set — so a chaos run carries its own fault description and
// the recorded log replays bit-identically without the engine present (the
// faults' effects are already in the recorded records; replay never consults
// the plan).
//
// A plan names the member VMs of a coordinated-checkpoint group — one member
// is the lone-VM case, not a separate mechanism — fail-stops a seeded subset
// of them, each at a counter on that member's own clock, and layers network
// actions on top, each fired by the first member whose counter reaches it.
//
// Keying actions to the global counter rather than wall time is what makes a
// campaign reproducible enough to assert on: the counter is the record
// phase's own logical clock, so "partition at counter 400" lands at the same
// point of the application's progress on every machine, fast or slow. The
// one wall-clock-shaped residue — which thread happens to win the next
// counter value — is exactly what the recorded schedule captures, so outcome
// invariants (convergence, digest equality) are asserted per run against
// that run's own log.
package chaos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/tracelog"
)

// ActionKind enumerates the network fault actions a plan can schedule.
type ActionKind uint8

const (
	// ActCrash fail-stops a non-member netsim host permanently at counter At.
	ActCrash ActionKind = iota + 1
	// ActPartition cuts Hosts from HostsB over the window [At, Until), healed
	// at Until. Windows may overlap: each partition heals by its own handle
	// (netsim.HealPartition), so concurrent cuts coexist and a link cut by
	// two windows stays cut until both end.
	ActPartition
	// ActLinkLoss sets the directional From→To drop rate to Rate over
	// [At, Until), restoring lossless delivery at Until.
	ActLinkLoss
)

func (k ActionKind) String() string {
	switch k {
	case ActCrash:
		return "crash"
	case ActPartition:
		return "partition"
	case ActLinkLoss:
		return "link-loss"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// Action is one scheduled network fault. Fields beyond Kind/At are used per
// kind: crash reads Hosts[0]; partition reads Hosts/HostsB/Until; link-loss
// reads From/To/Rate/Until.
type Action struct {
	Kind     ActionKind
	At       ids.GCount // counter the action fires at, on the first member to reach it
	Until    ids.GCount // window end (exclusive) for partition / link-loss
	Hosts    []string   // crash target (one) or partition side A
	HostsB   []string   // partition side B
	From, To string     // link-loss direction
	Rate     float64    // link-loss drop probability
}

// Kill fail-stops one member: the member's index in the plan's member list
// and the value of that member's own global counter to crash it at.
type Kill struct {
	Member int
	At     ids.GCount
}

// Plan is a complete fault schedule. It is recorded into every member's
// trace, so any salvageable subset of the set carries the full schedule.
type Plan struct {
	Seed    uint64
	Members []string // member host names; index order is the member slot order
	Kills   []Kill   // members to fail-stop, sorted by member index
	Actions []Action // network actions, each fired at its counter
}

// Validate checks the plan up front: at least one member, kills referencing
// distinct valid members at positive counters, finite rates in [0,1],
// well-formed windows, and no action crashing a member host — members die
// via their kill points, so a death lands between two recorded events, not
// mid-delivery. Partition windows may overlap freely: each cut heals by its
// own netsim handle.
func (p Plan) Validate() error {
	if len(p.Members) == 0 {
		return fmt.Errorf("chaos: plan has no members")
	}
	member := make(map[string]bool, len(p.Members))
	for _, m := range p.Members {
		member[m] = true
	}
	seen := make(map[int]bool, len(p.Kills))
	for i, k := range p.Kills {
		if k.Member < 0 || k.Member >= len(p.Members) {
			return fmt.Errorf("chaos: kill %d: member index %d outside group of %d", i, k.Member, len(p.Members))
		}
		if seen[k.Member] {
			return fmt.Errorf("chaos: kill %d: member %d killed twice", i, k.Member)
		}
		seen[k.Member] = true
		if k.At <= 0 {
			return fmt.Errorf("chaos: kill %d: counter %d not positive", i, k.At)
		}
	}
	for i, a := range p.Actions {
		switch a.Kind {
		case ActCrash:
			if len(a.Hosts) != 1 || a.Hosts[0] == "" {
				return fmt.Errorf("chaos: action %d: crash needs exactly one host", i)
			}
			if member[a.Hosts[0]] {
				return fmt.Errorf("chaos: action %d: cannot crash member %q via netsim — members die via kills", i, a.Hosts[0])
			}
		case ActPartition:
			if len(a.Hosts) == 0 || len(a.HostsB) == 0 {
				return fmt.Errorf("chaos: action %d: partition needs two non-empty sides", i)
			}
			for _, x := range a.Hosts {
				for _, y := range a.HostsB {
					if x == y {
						return fmt.Errorf("chaos: action %d: host %q on both sides of partition", i, x)
					}
				}
			}
			if a.Until <= a.At {
				return fmt.Errorf("chaos: action %d: partition window [%d,%d) is empty", i, a.At, a.Until)
			}
		case ActLinkLoss:
			if a.From == "" || a.To == "" {
				return fmt.Errorf("chaos: action %d: link-loss needs from and to", i)
			}
			// Written as a positive range test so NaN fails it too.
			if !(a.Rate >= 0 && a.Rate <= 1) {
				return fmt.Errorf("chaos: action %d: rate %v outside [0,1]", i, a.Rate)
			}
			if a.Until <= a.At {
				return fmt.Errorf("chaos: action %d: link-loss window [%d,%d) is empty", i, a.At, a.Until)
			}
		default:
			return fmt.Errorf("chaos: action %d: unknown kind %v", i, a.Kind)
		}
	}
	return nil
}

// Options shapes plan generation.
type Options struct {
	// Members are the recorded VMs' hosts; kills target these.
	Members []string
	// Hosts are non-member hosts (peers) network actions may also involve.
	Hosts []string
	// Horizon is the counter range faults are spread over; it must be at
	// least minHorizon.
	Horizon ids.GCount
	// Kills fixes the number of members to fail-stop; 0 lets the seed choose
	// 1 or 2 (never the whole group when more than one member exists).
	Kills int
}

// minHorizon is the smallest horizon Generate accepts: below it the
// narrowest window band (an eighth of the horizon) is empty.
const minHorizon = 8

// Generate expands a seed into a validated plan. The expansion is a pure
// function of (seed, opts): the same inputs produce the identical plan,
// byte-for-byte under Encode — the reproducibility anchor the soak runner
// asserts on.
func Generate(seed uint64, opts Options) (Plan, error) {
	if opts.Horizon < minHorizon {
		return Plan{}, fmt.Errorf("chaos: generate: horizon %d too small to place a fault window (minimum %d)", opts.Horizon, minHorizon)
	}
	if len(opts.Members) == 0 {
		return Plan{}, fmt.Errorf("chaos: generate: no members")
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	p := Plan{Seed: seed, Members: append([]string(nil), opts.Members...)}
	h := int64(opts.Horizon)

	// Kill count: explicit, or seeded 1..2, capped so at least one member
	// survives a multi-member group (a lone member is always the victim).
	kills := opts.Kills
	if kills <= 0 {
		kills = 1 + rng.Intn(2)
	}
	if max := len(opts.Members) - 1; max >= 1 && kills > max {
		kills = max
	}
	if kills > len(opts.Members) {
		kills = len(opts.Members)
	}
	// Victims and kill counters: each in [h/4, 3h/4] on the victim's own
	// clock — late enough that checkpoints precede it (the supervisor's
	// anchored restart has something to anchor on), early enough that
	// recovery has work left to fast-forward through.
	perm := rng.Perm(len(opts.Members))
	var lastKill ids.GCount
	for i := 0; i < kills; i++ {
		at := ids.GCount(h/4 + rng.Int63n(h/2+1))
		p.Kills = append(p.Kills, Kill{Member: perm[i], At: at})
		if at > lastKill {
			lastKill = at
		}
	}
	sort.Slice(p.Kills, func(i, j int) bool { return p.Kills[i].Member < p.Kills[j].Member })

	// Partition windows over members and peers, possibly cutting a member off
	// from everything: connects across the cut time out (recorded as errors),
	// segments in flight park until the heal point.
	all := append(append([]string(nil), opts.Members...), opts.Hosts...)
	for n := rng.Intn(3); n > 0; n-- {
		if len(all) < 2 {
			break
		}
		mid := ids.GCount(rng.Int63n(h / 2))
		width := ids.GCount(rng.Int63n(h/8) + 1)
		a, b := splitHosts(rng, all)
		p.Actions = append(p.Actions, Action{
			Kind: ActPartition, At: mid, Until: mid + width, Hosts: a, HostsB: b,
		})
	}
	// Directional link-loss epochs: loss perturbs which datagram deliveries
	// succeed, and the outcomes are recorded.
	for n := rng.Intn(3); n > 0; n-- {
		from := all[rng.Intn(len(all))]
		to := all[rng.Intn(len(all))]
		if from == to {
			continue
		}
		at := ids.GCount(rng.Int63n(h))
		width := ids.GCount(rng.Int63n(h/4) + 1)
		p.Actions = append(p.Actions, Action{
			Kind: ActLinkLoss, At: at, Until: at + width,
			From: from, To: to, Rate: 0.1 + 0.5*rng.Float64(),
		})
	}
	// Occasionally fail-stop one peer for good after the last kill point, so
	// recovery sometimes rejoins a degraded world. Drawn last: every draw
	// above is unaffected by whether peers exist.
	if len(opts.Hosts) > 0 && rng.Intn(4) == 0 {
		p.Actions = append(p.Actions, Action{
			Kind:  ActCrash,
			At:    lastKill + ids.GCount(rng.Int63n(h/4)+1),
			Hosts: []string{opts.Hosts[rng.Intn(len(opts.Hosts))]},
		})
	}
	sort.SliceStable(p.Actions, func(i, j int) bool { return p.Actions[i].At < p.Actions[j].At })
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// splitHosts deals hosts into two non-empty sides.
func splitHosts(rng *rand.Rand, hosts []string) (a, b []string) {
	cut := 1 + rng.Intn(len(hosts)-1)
	a = append(a, hosts[:cut]...)
	b = append(b, hosts[cut:]...)
	return a, b
}

// planMagic opens every encoded plan. A spec without it — the pre-group
// single-VM layout began with the raw seed — is rejected, never mis-parsed.
var planMagic = []byte("DJGP1\x00")

// Encode serializes the plan deterministically (field order, little-endian,
// length-prefixed strings): equal plans encode to equal bytes.
func (p Plan) Encode() []byte {
	buf := append([]byte(nil), planMagic...)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) {
		u32(uint32(len(s)))
		buf = append(buf, s...)
	}
	list := func(xs []string) {
		u32(uint32(len(xs)))
		for _, x := range xs {
			str(x)
		}
	}
	u64(p.Seed)
	list(p.Members)
	u32(uint32(len(p.Kills)))
	for _, k := range p.Kills {
		u32(uint32(k.Member))
		u64(uint64(k.At))
	}
	// The action block repeats the seed and leaves a zero where the
	// single-VM layout kept its kill counter: the bytes of a group plan
	// recorded before the two layouts merged are unchanged.
	u64(p.Seed)
	u64(0)
	u32(uint32(len(p.Actions)))
	for _, a := range p.Actions {
		buf = append(buf, uint8(a.Kind))
		u64(uint64(a.At))
		u64(uint64(a.Until))
		list(a.Hosts)
		list(a.HostsB)
		str(a.From)
		str(a.To)
		u64(math.Float64bits(a.Rate))
	}
	return buf
}

// planReader decodes the fixed-width fields of an encoded plan. The first
// short read sets bad and every later read returns zero values, so the
// decoder checks once per loop instead of once per field.
type planReader struct {
	data []byte
	off  int
	bad  bool
}

func (r *planReader) take(n int) []byte {
	if r.bad || n < 0 || n > len(r.data)-r.off {
		r.bad = true
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *planReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *planReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *planReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *planReader) str() string { return string(r.take(int(r.u32()))) }

func (r *planReader) list() []string {
	var xs []string
	for n := r.u32(); n > 0 && !r.bad; n-- {
		xs = append(xs, r.str())
	}
	return xs
}

// DecodePlan is Encode's inverse. It accepts only canonical encodings of
// valid plans: every accepted input re-encodes to the same bytes and passes
// Validate, so a hostile spec salvaged from a trace never reaches an engine.
func DecodePlan(data []byte) (Plan, error) {
	if !bytes.HasPrefix(data, planMagic) {
		return Plan{}, fmt.Errorf("chaos: plan encoding lacks the %q magic (a pre-group single-VM plan, or not a plan)", planMagic[:5])
	}
	r := &planReader{data: data, off: len(planMagic)}
	var p Plan
	p.Seed = r.u64()
	p.Members = r.list()
	for n := r.u32(); n > 0 && !r.bad; n-- {
		p.Kills = append(p.Kills, Kill{Member: int(r.u32()), At: ids.GCount(r.u64())})
	}
	if seed, legacyKill := r.u64(), r.u64(); !r.bad && (seed != p.Seed || legacyKill != 0) {
		return Plan{}, fmt.Errorf("chaos: plan action block header (seed %d, kill %d) disagrees with plan seed %d", seed, legacyKill, p.Seed)
	}
	for n := r.u32(); n > 0 && !r.bad; n-- {
		p.Actions = append(p.Actions, Action{
			Kind:   ActionKind(r.u8()),
			At:     ids.GCount(r.u64()),
			Until:  ids.GCount(r.u64()),
			Hosts:  r.list(),
			HostsB: r.list(),
			From:   r.str(),
			To:     r.str(),
			Rate:   math.Float64frombits(r.u64()),
		})
	}
	if r.bad {
		return Plan{}, fmt.Errorf("chaos: truncated plan encoding (%d bytes)", len(data))
	}
	if r.off != len(data) {
		return Plan{}, fmt.Errorf("chaos: %d trailing bytes after plan encoding", len(data)-r.off)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Record appends the plan to one member's schedule log as a chaos-plan
// record, so the trace carries its own fault description. Call it on every
// member, after EnableWAL and before the first critical event; replay
// ignores the record entirely.
func Record(logs *tracelog.Set, p Plan) {
	logs.Schedule.Append(&tracelog.ChaosPlanEntry{Seed: p.Seed, Spec: p.Encode()})
}

// PlanFromSet recovers the recorded plan from one member's trace set, or
// ok=false when the run recorded none. A recorded spec that does not decode
// is an error.
func PlanFromSet(set *tracelog.Set) (Plan, bool, error) {
	idx, err := tracelog.BuildScheduleIndex(set.Schedule)
	if err != nil {
		return Plan{}, false, err
	}
	if idx.ChaosPlan == nil {
		return Plan{}, false, nil
	}
	p, err := DecodePlan(idx.ChaosPlan.Spec)
	if err != nil {
		return Plan{}, false, err
	}
	return p, true, nil
}

// firePoint is one edge of the expanded timeline: a network mutation to apply
// once some member's counter reaches gc.
type firePoint struct {
	gc ids.GCount
	fn func()
}

// Engine drives a validated plan against a netsim network as the members'
// global counters advance. Install Observer(i) as member i's EventObserver:
// the observer fires every due network action inline (inside the member's
// GC-critical section, so an action lands between two recorded events — a
// deterministic point of the schedule) and, at the member's kill counter,
// panics core.Crash, which fail-stops the member's VM at that event.
//
// Firing is monotone: the first member whose counter reaches a point fires
// it. No single member's clock may gate the network actions: a member parked
// in the checkpoint barrier (or already killed) would strand a pending
// partition heal, freezing survivors blocked on the partitioned link into
// false-positive fail-stop detections.
type Engine struct {
	kills []ids.GCount // per member; 0 spares it
	// due is points[next].gc: an event below it takes no lock.
	due atomic.Uint64

	mu     sync.Mutex
	points []firePoint // network fire points in counter order, then one no counter reaches
	next   int
}

// NewEngine expands the plan's actions into counter-ordered fire points whose
// netsim faults target net.
func NewEngine(p Plan, net *netsim.Network) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{kills: make([]ids.GCount, len(p.Members))}
	for _, k := range p.Kills {
		e.kills[k.Member] = k.At
	}
	for _, a := range p.Actions {
		a := a
		switch a.Kind {
		case ActCrash:
			e.points = append(e.points, firePoint{a.At, func() { net.CrashHost(a.Hosts[0]) }})
		case ActPartition:
			// The cut and its heal share the handle via the closure variable;
			// points fire in counter order under mu, so the install always
			// precedes the heal. Healing by handle leaves any overlapping
			// partition's cuts in place.
			var pid netsim.PartitionID
			e.points = append(e.points, firePoint{a.At, func() { pid = net.Partition(a.Hosts, a.HostsB) }})
			e.points = append(e.points, firePoint{a.Until, func() { net.HealPartition(pid) }})
		case ActLinkLoss:
			e.points = append(e.points, firePoint{a.At, func() { net.SetLinkLoss(a.From, a.To, a.Rate) }})
			e.points = append(e.points, firePoint{a.Until, func() { net.SetLinkLoss(a.From, a.To, 0) }})
		}
	}
	sort.SliceStable(e.points, func(i, j int) bool { return e.points[i].gc < e.points[j].gc })
	e.points = append(e.points, firePoint{gc: math.MaxUint64})
	e.due.Store(uint64(e.points[0].gc))
	return e, nil
}

// Observer returns member i's event-observer closure. Each VM calls its own
// observer under its scheduler lock with strictly increasing counter values;
// a member fires the points due at its counter, under mu and in counter
// order, before it checks its own kill point.
func (e *Engine) Observer(member int) func(ids.ThreadNum, ids.GCount) {
	killAt := e.kills[member]
	return func(_ ids.ThreadNum, gc ids.GCount) {
		if uint64(gc) >= e.due.Load() {
			e.mu.Lock()
			for ; e.points[e.next].gc <= gc; e.next++ {
				e.points[e.next].fn()
			}
			e.due.Store(uint64(e.points[e.next].gc))
			e.mu.Unlock()
		}
		if killAt > 0 && gc >= killAt {
			panic(core.Crash{})
		}
	}
}
