package kvapp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/djsock"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/recline"
	"repro/internal/super"
	"repro/internal/tracelog"
)

// Supervised mode: the full robustness loop in one run, for one VM or many.
//
// N open-world member VMs ("m1".."mN") record the same round-structured echo
// workload against two shared uninstrumented peers, each with its own durable
// WAL. Every round ends in one coordinated checkpoint through a
// recline.Coordinator, which stamps a GroupEpochEntry — a complete recovery
// line — into every member's trace, followed by a checkpoint-anchored WAL
// truncation. A seeded chaos plan fail-stops a subset of the members, each
// crashed at a counter on its own clock (the in-situ analogue of kill -9:
// core.Crash ends every thread of the member's VM at that event), and layers
// partitions, link loss and peer crashes on top. The supervisor detects the
// fail-stopped subset (telling barrier-parked survivors from the dead),
// salvages the crashed WALs, solves the set's latest complete recovery line,
// and restarts each crashed member as a replay resumed from its line anchor
// and run to the end of its salvaged log (the crash point) while the
// survivors keep running with reduced membership. The
// run then verifies convergence member by member: each crashed member's
// recovered replay must equal the undisturbed baseline replay of the same
// salvaged log from its oldest retained anchor, and each survivor's live
// store must equal a from-zero replay of its in-memory log.
//
// N=1 is the lone supervised primary: its barrier completes at once, its own
// epochs are the recovery line, and it is always the plan's victim.
//
// Open world is what makes a recovered replay standalone: every byte a member
// read was recorded, so no replay needs the echo peers or a live network.

const (
	echoPort       = 7200
	supWorkers     = 2 // round workers, one per peer
	defaultHorizon = 2000
	defaultKeep    = 2
)

// SupervisedConfig sizes one supervised chaos run.
type SupervisedConfig struct {
	// Dir is the working directory for the member WALs (created if needed).
	Dir string
	// Seed expands into the fault schedule (chaos.Generate) and seeds netsim.
	Seed uint64
	// Members is the number of supervised VMs ("m1".."mN"): 1 for a lone
	// primary. 0 means 3. Ignored when Plan is set: the plan names its
	// members.
	Members int
	// Horizon is the counter range faults spread over. 0 means 2000.
	Horizon ids.GCount
	// Keep is the checkpoint retention for WAL truncation. 0 means 2.
	Keep int
	// Heartbeat / FailAfter tune the supervisor (see super.Config). FailAfter
	// must comfortably exceed netsim's 50ms partition connect-timeout, or a
	// worker legitimately waiting one out reads as a crash; 0 means 400ms.
	Heartbeat time.Duration
	FailAfter time.Duration
	// Plan overrides the generated schedule (Seed still seeds netsim).
	Plan *chaos.Plan
}

// MemberResult reports one member's fate and convergence check.
type MemberResult struct {
	// Name is the member's host name ("m1"..).
	Name string
	// Killed reports the plan fail-stops this member; Crashed that the
	// supervisor detected and recovered it.
	Killed  bool
	Crashed bool
	// OnLine reports a crashed member was restarted from its anchor on the
	// episode's recovery line (not a latest-checkpoint fallback).
	OnLine bool
	// RecoveredDigest is the member's final store digest: the restart
	// replay's for a crashed member, the live store's for a survivor.
	RecoveredDigest uint64
	// BaselineDigest is the undisturbed replay digest: the salvaged log from
	// its oldest anchor for a crashed member, the in-memory log from zero for
	// a survivor.
	BaselineDigest uint64
	// Converged reports RecoveredDigest == BaselineDigest.
	Converged bool
	// Rounds is how many coordinated rounds the member completed before
	// crashing or finishing.
	Rounds int
	// WALSizes samples the member's on-disk WAL size right after each
	// truncation — the boundedness evidence (one entry per completed
	// truncation); TruncateStats collects each truncation's kept/dropped
	// accounting.
	WALSizes      []int64
	TruncateStats []*tracelog.TruncateStats
	// TruncateErrs collects every truncation failure other than the expected
	// tracelog.ErrNoAnchor of the first rounds. Recording continued past
	// each, with durability degraded: the WAL kept growing.
	TruncateErrs []error
}

// SteadyWAL returns the smallest and largest post-truncation WAL size over
// the second half of the member's truncation cycles — past the warmup (store
// filling, retention reaching its depth), where a bounded log oscillates in a
// narrow band instead of trending upward. Zeros without a sample.
func (m MemberResult) SteadyWAL() (min, max int64) {
	if len(m.WALSizes) == 0 {
		return 0, 0
	}
	tail := m.WALSizes[len(m.WALSizes)/2:]
	min, max = tail[0], tail[0]
	for _, sz := range tail {
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
	}
	return min, max
}

// SupervisedResult reports one supervised chaos run.
type SupervisedResult struct {
	// Plan is the fault schedule the run executed.
	Plan chaos.Plan
	// Outcome is the supervision outcome (episodes, solved lines).
	Outcome *super.Outcome
	// Members holds one result per member, in member order.
	Members []MemberResult
	// Line is the first episode's chosen recovery line (nil without a crash).
	Line *recline.Line
	// Epochs is how many coordinated checkpoint rounds completed.
	Epochs uint64
	// ClusterDigest folds the members' recovered digests; BaselineClusterDigest
	// folds their baseline digests. Converged reports the two folds equal and
	// every member individually converged.
	ClusterDigest         uint64
	BaselineClusterDigest uint64
	Converged             bool
	// OnLine reports every plan-killed member crashed and was restarted from
	// its recovery-line anchor.
	OnLine bool
}

// RunSupervised executes one seeded chaos-supervision run.
func RunSupervised(cfg SupervisedConfig) (*SupervisedResult, error) {
	if cfg.Members <= 0 {
		cfg.Members = 3
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = defaultHorizon
	}
	if cfg.Keep <= 0 {
		cfg.Keep = defaultKeep
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 400 * time.Millisecond
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvapp: supervised: %w", err)
	}
	peers := []string{"p1", "p2"}
	var plan chaos.Plan
	if cfg.Plan != nil {
		plan = *cfg.Plan
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	} else {
		names := make([]string, cfg.Members)
		for i := range names {
			names[i] = fmt.Sprintf("m%d", i+1)
		}
		var err error
		plan, err = chaos.Generate(cfg.Seed, chaos.Options{
			Members: names, Hosts: peers, Horizon: cfg.Horizon,
		})
		if err != nil {
			return nil, err
		}
	}
	names, n := plan.Members, len(plan.Members)
	res := &SupervisedResult{Plan: plan, Members: make([]MemberResult, n)}

	// Live network with mild ambient chaos; the plan layers faults on top.
	net := netsim.NewNetwork(netsim.Config{
		Seed: int64(cfg.Seed),
		Chaos: netsim.Chaos{
			ConnectDelayMax: 200 * time.Microsecond,
			DeliverDelayMax: 100 * time.Microsecond,
		},
	})
	for _, p := range peers {
		stop, err := startEchoPeer(net, p, echoPort)
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	engine, err := chaos.NewEngine(plan, net)
	if err != nil {
		return nil, err
	}

	vms := make([]*core.VM, n)
	stores := make([]map[string]string, n)
	vmIDs := make([]ids.DJVMID, n)
	members := make([]super.Member, n)
	for i := range vms {
		walPath := filepath.Join(cfg.Dir, names[i]+".wal")
		vm, err := core.NewVM(core.Config{
			ID: ids.DJVMID(i + 1), Mode: ids.Record, World: ids.OpenWorld,
			EventObserver: engine.Observer(i),
		})
		if err != nil {
			return nil, err
		}
		if err := vm.EnableWAL(walPath, tracelog.WALOptions{SyncEvery: 8}); err != nil {
			return nil, err
		}
		chaos.Record(vm.Logs(), plan)
		vms[i], vmIDs[i] = vm, vm.ID()
		stores[i] = map[string]string{}
		members[i] = super.Member{Name: names[i], VM: vm, WALPath: walPath}
		res.Members[i].Name = names[i]
	}
	coord := recline.NewCoordinator(vmIDs...)

	// The workload bound: record and replay exit the round loop at the same
	// deterministic counter value, comfortably past every kill point.
	limit := 2 * cfg.Horizon

	recovered := make(map[int]uint64, len(plan.Kills)) // restart-replay digests by member
	sup := super.Watch(members, super.Config{
		Heartbeat:   cfg.Heartbeat,
		FailAfter:   cfg.FailAfter,
		Coordinator: coord,
		Restart: func(rec *super.Recovery) error {
			digest, err := replaySalvaged(coord, vmIDs[rec.Member], rec.Logs, rec.Checkpoint, limit)
			if err != nil {
				return err
			}
			recovered[rec.Member] = digest
			return nil
		},
	})

	// Start every member's recorded workload. A member that reaches the bound
	// leaves the coordinator (releasing any barrier-parked peers) and tells
	// the supervisor it finished cleanly; a killed member's threads end at
	// its kill point without a word, which is what fail-stop means here.
	for i := range vms {
		i := i
		vm, mr := vms[i], &res.Members[i]
		afterCkpt := func(round int) {
			mr.Rounds = round + 1
			st, err := vm.TruncateWAL(cfg.Keep)
			switch {
			case errors.Is(err, tracelog.ErrNoAnchor):
				// Expected until retention fills in the first keep-1 rounds.
			case err != nil:
				// Degraded durability must not stop recording, but it must
				// not pass silently either.
				mr.TruncateErrs = append(mr.TruncateErrs, fmt.Errorf("round %d: %w", round, err))
			case st != nil:
				mr.TruncateStats = append(mr.TruncateStats, st)
				if sz, err := vm.Logs().WAL().Size(); err == nil {
					mr.WALSizes = append(mr.WALSizes, sz)
				}
			}
		}
		runSupervisedWorkload(vm, net, coord, names[i], stores[i], 0, limit, afterCkpt, func() {
			coord.Remove(vmIDs[i])
			sup.MarkDone(i)
		})
	}

	outcome, err := sup.Wait()
	res.Outcome = outcome
	if err != nil {
		return res, err
	}
	if len(plan.Kills) > 0 && !outcome.Detected {
		return res, fmt.Errorf("kvapp: supervised: no kill fired (plan kills %d members)", len(plan.Kills))
	}
	if len(outcome.Episodes) > 0 {
		res.Line = outcome.Episodes[0].Line
	}
	res.Epochs = coord.Epochs()

	for _, k := range plan.Kills {
		res.Members[k.Member].Killed = true
	}
	recoveries := make(map[int]*super.Recovery)
	for _, ep := range outcome.Episodes {
		for _, rec := range ep.Recoveries {
			recoveries[rec.Member] = rec
		}
	}

	res.OnLine = true
	res.Converged = true
	for i := range vms {
		mr := &res.Members[i]
		if rec, ok := recoveries[i]; ok {
			digest, ok := recovered[i]
			if !ok {
				return res, fmt.Errorf("kvapp: supervised: member %s recovered without a replay outcome", names[i])
			}
			mr.Crashed, mr.OnLine = true, rec.OnLine
			mr.RecoveredDigest = digest
			mr.BaselineDigest, err = replayBaseline(coord, vmIDs[i], rec.Logs, rec.Report.BaseGC, limit)
		} else {
			// Survivor: the live store is the truth; the baseline replays the
			// never-truncated in-memory log from zero.
			vms[i].Wait()
			if err := vms[i].Close(); err != nil {
				return res, fmt.Errorf("kvapp: supervised: member %s: %w", names[i], err)
			}
			mr.RecoveredDigest = digestStore(stores[i])
			mr.BaselineDigest, err = replaySalvaged(coord, vmIDs[i], vms[i].Logs(), nil, limit)
		}
		if err != nil {
			return res, fmt.Errorf("kvapp: supervised: member %s baseline: %w", names[i], err)
		}
		mr.Converged = mr.RecoveredDigest == mr.BaselineDigest
		if !mr.Converged {
			res.Converged = false
		}
		if mr.Killed && !(mr.Crashed && mr.OnLine) {
			res.OnLine = false
		}
	}
	res.ClusterDigest = digestCluster(res.Members, false)
	res.BaselineClusterDigest = digestCluster(res.Members, true)
	if res.ClusterDigest != res.BaselineClusterDigest {
		res.Converged = false
	}
	return res, nil
}

// digestCluster folds the per-member digests (baseline or recovered) into one
// cluster digest, in member order.
func digestCluster(members []MemberResult, baseline bool) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range members {
		h.Write([]byte(m.Name))
		h.Write([]byte{0})
		d := m.RecoveredDigest
		if baseline {
			d = m.BaselineDigest
		}
		binary.LittleEndian.PutUint64(b[:], d)
		h.Write(b[:])
	}
	return h.Sum64()
}

// replaySalvaged replays one member's salvaged (or in-memory) set resumed
// from cp (nil = from zero), running to the end of the log or the workload
// bound, whichever the schedule reaches first — the supervisor's restart
// path — and returns the digest of the store it reconstructs.
func replaySalvaged(coord *recline.Coordinator, id ids.DJVMID, logs *tracelog.Set, cp *checkpoint.Snapshot, limit ids.GCount) (uint64, error) {
	store := map[string]string{}
	startRound := 0
	var resume *core.ResumePoint
	if cp != nil {
		r, s, err := decodeSupState(cp.Data)
		if err != nil {
			return 0, err
		}
		startRound, store = r, s
		rp := cp.Resume
		resume = &rp
	}
	vm, err := core.NewVM(core.Config{
		ID: id, Mode: ids.Replay, World: ids.OpenWorld,
		ReplayLogs: logs, Resume: resume, StopAtLogEnd: true,
		StallTimeout: 10 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	// Close stops the stall watchdog, which would outlive the replay.
	defer vm.Close()
	// Open-world replay: all socket traffic is served from the log, so the
	// network is never dialed — a fresh empty one satisfies the env plumbing
	// — and the coordinator is never consulted in replay.
	runSupervisedWorkload(vm, netsim.NewNetwork(netsim.Config{}), coord, "replay", store, startRound, limit, nil, nil)
	vm.Wait()
	return digestStore(store), nil
}

// replayBaseline replays the member's set from its oldest usable anchor:
// from zero for an untruncated log, else from the checkpoint at the
// truncation base.
func replayBaseline(coord *recline.Coordinator, id ids.DJVMID, logs *tracelog.Set, baseGC, limit ids.GCount) (uint64, error) {
	if baseGC == 0 {
		return replaySalvaged(coord, id, logs, nil, limit)
	}
	cps, err := checkpoint.List(logs)
	if err != nil {
		return 0, err
	}
	if len(cps) == 0 {
		return 0, fmt.Errorf("kvapp: truncated log (base %d) with no checkpoint", baseGC)
	}
	return replaySalvaged(coord, id, logs, cps[0], limit)
}

// runSupervisedWorkload starts one member's round loop on vm. Each round
// spawns one worker per peer (connect, write a round-unique payload, read the
// echo, record the outcome in the monitored store), joins them, then takes
// one coordinated checkpoint of the store at the quiescent point — in record
// mode that blocks at the barrier until every live member of the round has
// arrived — and hands the round to afterCkpt (record only: truncation and
// WAL-size sampling — no critical events, so record and replay schedules stay
// aligned). The loop exits once the member's own counter passes limit, a
// bound that replays deterministically; in record mode a victim never gets
// there (the chaos engine crashes it first), and in replay StopAtLogEnd stops
// it at the crash point. onDone fires after the loop so a finishing member
// can leave the group cleanly.
func runSupervisedWorkload(vm *core.VM, net *netsim.Network, coord *recline.Coordinator, host string, store map[string]string, startRound int, limit ids.GCount, afterCkpt func(round int), onDone func()) {
	env := djsock.NewEnv(vm, net, host)
	mon := core.NewMonitor()
	mon.Register(vm)
	peers := []string{"p1", "p2"}
	vm.Start(func(main *core.Thread) {
		for r := startRound; main.Clock() < limit; r++ {
			workers := make([]*core.Thread, supWorkers)
			for w := 0; w < supWorkers; w++ {
				w := w
				r := r
				workers[w] = main.Spawn(func(t *core.Thread) {
					// Bounded keyspace, round-unique payloads: the store (and
					// with it each checkpoint's state, and with that the
					// truncated WAL) stays a bounded size while the digest
					// still depends on exactly which round's write won each
					// key.
					key := fmt.Sprintf("k%02d", (r*supWorkers+w)%16)
					val := echoRoundTrip(t, env, peers[w%len(peers)], fmt.Sprintf("r%d.w%d", r, w))
					mon.Enter(t)
					store[key] = val
					mon.Exit(t)
				})
			}
			for _, w := range workers {
				main.Join(w)
			}
			r := r
			coord.Checkpoint(main, func() []byte { return encodeSupState(r+1, store) })
			if afterCkpt != nil {
				afterCkpt(r)
			}
		}
		if onDone != nil {
			onDone()
		}
	})
}

// echoRoundTrip runs one worker's network interaction and folds every
// outcome — including faults — into a deterministic value. Failures are
// data, not aborts: a connect timeout across a partition cut records
// "unreachable", and the replayed run reproduces the same recorded error.
//
// Every read carries an SO_TIMEOUT: a member must never block unboundedly
// inside a round. A partition that parks the echo response in the network
// would otherwise freeze the member outside the coordinator's barrier — while
// the other members, parked AT the barrier waiting for it, stop advancing the
// clocks that would fire the plan's heal — until the supervisor misreads the
// member as fail-stopped. Timeouts are recorded as the read's outcome, so
// replay reproduces them.
func echoRoundTrip(t *core.Thread, env *djsock.Env, peer, payload string) string {
	s, err := env.Connect(t, netsim.Addr{Host: peer, Port: echoPort})
	if err != nil {
		return "unreachable"
	}
	defer s.Close(t)
	if _, err := s.Write(t, []byte(payload)); err != nil {
		return "write-error"
	}
	buf := make([]byte, len(payload))
	for got := 0; got < len(buf); {
		n, err := s.ReadTimeout(t, buf[got:], 20*time.Millisecond)
		if err != nil {
			return "read-error"
		}
		got += n
	}
	return string(buf)
}

// startEchoPeer runs a plain, uninstrumented echo server on the simulated
// host: accepted connections echo bytes until EOF or reset. Peers are not
// DJVMs — the open-world primary records everything it reads from them. stop
// closes the listener and every stream it accepted, and returns once the
// peer's goroutines have.
func startEchoPeer(net *netsim.Network, host string, port uint16) (stop func(), err error) {
	l, err := net.Listen(host, port)
	if err != nil {
		return nil, err
	}
	var streams []*netsim.Stream
	var echoes sync.WaitGroup
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			s, err := l.Accept()
			if err != nil {
				return
			}
			streams = append(streams, s)
			echoes.Add(1)
			go func() {
				defer echoes.Done()
				defer s.Close()
				buf := make([]byte, 512)
				for {
					n, err := s.Read(buf)
					if n > 0 {
						if _, werr := s.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return func() {
		l.Close()
		<-accepting // the accept loop has returned: streams is final
		for _, s := range streams {
			s.Close()
		}
		echoes.Wait()
	}, nil
}

// encodeSupState serializes the resumable workload state: the next round
// number and the store contents in key order.
func encodeSupState(round int, store map[string]string) []byte {
	keys := make([]string, 0, len(store))
	for k := range store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(round))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	for _, k := range keys {
		str(k)
		str(store[k])
	}
	return buf
}

// decodeSupState is encodeSupState's inverse.
func decodeSupState(data []byte) (int, map[string]string, error) {
	off := 0
	u32 := func() (uint32, bool) {
		if off+4 > len(data) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, true
	}
	str := func() (string, bool) {
		n, ok := u32()
		if !ok || off+int(n) > len(data) {
			return "", false
		}
		s := string(data[off : off+int(n)])
		off += int(n)
		return s, true
	}
	round, ok1 := u32()
	count, ok2 := u32()
	if !ok1 || !ok2 {
		return 0, nil, fmt.Errorf("kvapp: truncated checkpoint state")
	}
	store := make(map[string]string, count)
	for i := uint32(0); i < count; i++ {
		k, ok1 := str()
		v, ok2 := str()
		if !ok1 || !ok2 {
			return 0, nil, fmt.Errorf("kvapp: truncated checkpoint state")
		}
		store[k] = v
	}
	return int(round), store, nil
}
