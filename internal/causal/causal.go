// Package causal reconstructs the global happens-before order of a recorded
// distributed run from its per-VM log sets — post-mortem, with no replay.
//
// The inputs are exactly what the record phase already captures, plus the two
// optional annotation kinds this package motivated (tracelog.KindTimestamp,
// tracelog.KindNetSpan):
//
//   - Program order: each VM's logical schedule intervals totally order that
//     VM's critical events by global counter, and attribute every counter
//     value to a thread.
//   - Synchronization edges: a Notify record at counter g wakes a set of
//     threads; each woken thread's next scheduled event happens-after g.
//     Thread handoffs — consecutive counter values executed by different
//     threads — are edges too: the counter itself is the handoff token.
//   - Cross-VM message edges: one per message tracelog.Messages matches — a
//     connect and the accept whose ServerSocketEntry names its connectionId
//     (handshake edges), a write net-span and the first peer read net-span
//     overlapping its bytes (stream-data edges), and a datagram delivery,
//     whose dgNetworkEventId names the sender's ⟨VM, counter⟩ (datagram
//     edges). The recovery-line solver (internal/recline) classifies the
//     same enumeration. Each end's counter is attributed to the thread that
//     executed it.
//
// Nodes are *segments* of schedule intervals: every interval is split at the
// endpoints of incoming and outgoing cross edges, so an edge's source event
// ends its segment and an edge's target event begins one. Without the split,
// a request/response exchange inside one interval pair would produce a false
// cycle at interval granularity; with it, the graph of an honest log set is
// acyclic (Build fails loudly otherwise).
//
// On top of the graph Build assigns each node a logical start time (longest
// path from any root, one critical event = one tick) and a vector clock, so
// callers can test ordering, export timelines, and attribute critical-path
// time. One world gives one graph: Build orders VMs by id, notify edges by
// counter and message edges in Messages' order, so the Perfetto export, the
// WhyDiverged list and the critical-path report are the same bytes however
// often, and in whatever set order, the graph is built.
package causal

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/ids"
	"repro/internal/tracelog"
)

// NodeID indexes a node within Graph.Nodes.
type NodeID int32

// Node is one segment of a thread's logical schedule: the thread executed
// every counter value in [First, Last] consecutively, with no incoming or
// outgoing cross edge strictly inside the range.
type Node struct {
	VM     ids.DJVMID
	Thread ids.ThreadNum
	First  ids.GCount
	Last   ids.GCount // inclusive
}

// Events is the number of critical events the segment covers.
func (n Node) Events() uint64 { return uint64(n.Last-n.First) + 1 }

// EdgeKind classifies a happens-before edge.
type EdgeKind uint8

const (
	// EdgeProgram links consecutive segments of the same thread.
	EdgeProgram EdgeKind = iota + 1
	// EdgeHandoff links consecutive counter values executed by different
	// threads of one VM: the global counter hand-over orders them.
	EdgeHandoff
	// EdgeNotify links a notify event to each woken thread's next event.
	EdgeNotify
	// EdgeHandshake links a connect event to the accept that received its
	// connectionId meta frame.
	EdgeHandshake
	// EdgeStream links a stream write to the first peer read that consumed
	// any of its bytes (later reads of the same bytes follow by the
	// receiver's program order).
	EdgeStream
	// EdgeDatagram links a datagram send to one delivery of it.
	EdgeDatagram
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeProgram:
		return "program"
	case EdgeHandoff:
		return "handoff"
	case EdgeNotify:
		return "notify"
	case EdgeHandshake:
		return "handshake"
	case EdgeStream:
		return "stream"
	case EdgeDatagram:
		return "datagram"
	default:
		return "edge?"
	}
}

// Edge is one happens-before edge. FromGC is the counter value of the source
// event (always the From node's Last); ToGC is the counter value of the
// target event (always the To node's First).
type Edge struct {
	Kind         EdgeKind
	From, To     NodeID
	FromGC, ToGC ids.GCount
}

// crossEdge is a collected-but-unresolved edge between two events, gathered
// before segmentation decides which nodes the events land in.
type crossEdge struct {
	kind       EdgeKind
	fromVM     int // index into Graph.VMs
	fromThread ids.ThreadNum
	fromGC     ids.GCount
	toVM       int
	toThread   ids.ThreadNum
	toGC       ids.GCount
}

// VMInfo summarizes one VM's log set within the graph.
type VMInfo struct {
	ID      ids.DJVMID
	Threads uint32
	FinalGC ids.GCount
	// Timestamps are the wall-clock anchors EnableCausalTrace logs, in order.
	Timestamps []tracelog.TimestampEntry
}

// BuildStats reports what the builder saw, including everything it could NOT
// match — an unmatched count is a coverage hole, never a silent drop.
type BuildStats struct {
	Nodes       int
	EdgesByKind map[EdgeKind]int
	// Messages is the number of cross-VM message edges (handshake + stream +
	// datagram) — one per recorded message the builder could correlate.
	Messages int
	// UnmatchedHandshakes counts accepts whose peer connect span (or own
	// accept span) is missing — typically a run recorded without causal
	// tracing enabled.
	UnmatchedHandshakes int
	// UnmatchedWrites counts write spans none of whose bytes appear in any
	// peer read span (e.g. bytes still unread when the connection closed).
	UnmatchedWrites int
	// UnmatchedNotifies counts notify wakes whose woken thread never ran
	// another event.
	UnmatchedNotifies int
	// DanglingDatagrams counts deliveries naming a sender VM or counter the
	// log sets don't cover.
	DanglingDatagrams int
	// SplitMisses counts cross edges whose endpoint did not land exactly on
	// a segment boundary; nonzero values indicate an internal builder bug.
	SplitMisses int
}

// Graph is the reconstructed happens-before graph of one recorded world.
type Graph struct {
	VMs   []VMInfo
	Nodes []Node
	Edges []Edge
	// Order is a topological order of node ids (existence proves acyclicity).
	Order []NodeID
	// Start is each node's logical start time: the longest event-count path
	// from any root. One critical event = one tick, so within a VM the
	// segments tile [Start, Start+Events) without overlap.
	Start []uint64
	// VC is each node's vector clock, indexed like VMs: VC[n][i] is the
	// number of VM i's events that happened-before the end of node n
	// (inclusive of n's own events).
	VC [][]uint64
	// In and Out are adjacency lists of edge indexes per node.
	In, Out [][]int32
	Stats   BuildStats

	vmIndex map[ids.DJVMID]int
	// byVM holds each VM's node ids sorted by First (disjoint within a VM).
	byVM [][]NodeID
}

// VMIndex maps a DJVM id to its index in Graph.VMs.
func (g *Graph) VMIndex(vm ids.DJVMID) (int, bool) {
	i, ok := g.vmIndex[vm]
	return i, ok
}

// NodeAt finds the node covering counter value gc on the given VM.
func (g *Graph) NodeAt(vm ids.DJVMID, gc ids.GCount) (NodeID, bool) {
	vi, ok := g.vmIndex[vm]
	if !ok {
		return 0, false
	}
	nodes := g.byVM[vi]
	i := sort.Search(len(nodes), func(i int) bool { return g.Nodes[nodes[i]].First > gc })
	if i == 0 {
		return 0, false
	}
	n := nodes[i-1]
	if gc > g.Nodes[n].Last {
		return 0, false
	}
	return n, true
}

// vmLogs is the per-VM working state during Build.
type vmLogs struct {
	sched *tracelog.ScheduleIndex
	// spans is every schedule interval sorted by First (counter ranges are
	// disjoint across threads), for counter→thread attribution.
	spans []ivSpan
	// cutEnd[t][g]: thread t's segment covering g must end at g (g is a
	// cross-edge source). cutStart[t][h]: the segment covering h must start
	// at h (h is a cross-edge target).
	cutEnd   map[ids.ThreadNum]map[ids.GCount]bool
	cutStart map[ids.ThreadNum]map[ids.GCount]bool
}

type ivSpan struct {
	first, last ids.GCount
	thread      ids.ThreadNum
}

// threadAt attributes a counter value to the thread that executed it.
func (v *vmLogs) threadAt(gc ids.GCount) (ids.ThreadNum, bool) {
	i := sort.Search(len(v.spans), func(i int) bool { return v.spans[i].first > gc })
	if i == 0 || gc > v.spans[i-1].last {
		return 0, false
	}
	return v.spans[i-1].thread, true
}

func (v *vmLogs) markCut(m map[ids.ThreadNum]map[ids.GCount]bool, t ids.ThreadNum, gc ids.GCount) {
	set := m[t]
	if set == nil {
		set = make(map[ids.GCount]bool)
		m[t] = set
	}
	set[gc] = true
}

// Build reconstructs the happens-before graph from one log set per VM, given
// in any order: the graph lists its VMs in ascending id, and building it
// twice from the same sets gives the same graph. The sets must come from one
// recorded world (duplicate VM ids are an error); cross-VM message edges
// beyond datagrams require the run to have been recorded with causal tracing
// enabled — without it the graph still builds, with the unmatched counts in
// Stats reporting the holes.
func Build(sets []*tracelog.Set) (*Graph, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("causal: no log sets")
	}
	xs := make([]*tracelog.SetIndex, 0, len(sets))
	for i, set := range sets {
		x, err := tracelog.IndexSet(set)
		if err != nil {
			return nil, fmt.Errorf("causal: log set %d: %w", i, err)
		}
		if x.Schedule.OrderMode != ids.OrderGlobal {
			// Sharded logs order events per object, not by one global counter;
			// there is no total intra-VM order to segment, so the graph this
			// package builds does not exist for them.
			return nil, fmt.Errorf("causal: vm %d was recorded with %v order mode, which has no global event order; record with OrderGlobal for causal analysis",
				x.VM(), x.Schedule.OrderMode)
		}
		xs = append(xs, x)
	}
	slices.SortStableFunc(xs, func(a, b *tracelog.SetIndex) int { return cmp.Compare(a.VM(), b.VM()) })
	g := &Graph{
		vmIndex: make(map[ids.DJVMID]int),
		Stats:   BuildStats{EdgesByKind: make(map[EdgeKind]int)},
	}
	var vms []*vmLogs
	for _, x := range xs {
		sched := x.Schedule
		if _, dup := g.vmIndex[sched.Meta.VM]; dup {
			return nil, fmt.Errorf("causal: duplicate log set for vm %d", sched.Meta.VM)
		}
		v := &vmLogs{
			sched:    sched,
			cutEnd:   make(map[ids.ThreadNum]map[ids.GCount]bool),
			cutStart: make(map[ids.ThreadNum]map[ids.GCount]bool),
		}
		for _, iv := range sched.Streams[0].Ordered() {
			v.spans = append(v.spans, ivSpan{first: iv.First, last: iv.Last, thread: iv.Thread})
		}
		g.vmIndex[sched.Meta.VM] = len(vms)
		g.VMs = append(g.VMs, VMInfo{
			ID:         sched.Meta.VM,
			Threads:    sched.Meta.Threads,
			FinalGC:    sched.Meta.FinalGC,
			Timestamps: sched.Timestamps,
		})
		vms = append(vms, v)
	}

	cross := notifyEdges(g, vms)
	msgs, un := tracelog.Messages(xs)
	g.Stats.UnmatchedHandshakes = un.Handshakes
	g.Stats.UnmatchedWrites = un.Writes
	g.Stats.DanglingDatagrams = un.Datagrams
	cross = appendMessageEdges(cross, g, vms, msgs)

	// Mark the segment cuts every cross edge needs, then build the nodes.
	for _, ce := range cross {
		vms[ce.fromVM].markCut(vms[ce.fromVM].cutEnd, ce.fromThread, ce.fromGC)
		vms[ce.toVM].markCut(vms[ce.toVM].cutStart, ce.toThread, ce.toGC)
	}
	for vi, v := range vms {
		g.byVM = append(g.byVM, nil)
		for _, sp := range v.spans { // already sorted by First
			for _, seg := range splitSpan(sp, v.cutEnd[sp.thread], v.cutStart[sp.thread]) {
				id := NodeID(len(g.Nodes))
				g.Nodes = append(g.Nodes, Node{
					VM: g.VMs[vi].ID, Thread: sp.thread, First: seg.first, Last: seg.last,
				})
				g.byVM[vi] = append(g.byVM[vi], id)
			}
		}
	}
	g.Stats.Nodes = len(g.Nodes)

	// Chain edges: each VM's segments, in counter order, totally order the
	// VM's critical events.
	for vi := range vms {
		nodes := g.byVM[vi]
		for i := 1; i < len(nodes); i++ {
			a, b := g.Nodes[nodes[i-1]], g.Nodes[nodes[i]]
			kind := EdgeHandoff
			if a.Thread == b.Thread {
				kind = EdgeProgram
			}
			g.addEdge(Edge{Kind: kind, From: nodes[i-1], To: nodes[i], FromGC: a.Last, ToGC: b.First})
		}
	}
	// Cross edges, now resolvable to exact segment boundaries.
	for _, ce := range cross {
		from, okF := g.NodeAt(g.VMs[ce.fromVM].ID, ce.fromGC)
		to, okT := g.NodeAt(g.VMs[ce.toVM].ID, ce.toGC)
		if !okF || !okT {
			g.Stats.SplitMisses++
			continue
		}
		if g.Nodes[from].Last != ce.fromGC || g.Nodes[to].First != ce.toGC {
			g.Stats.SplitMisses++
		}
		g.addEdge(Edge{Kind: ce.kind, From: from, To: to, FromGC: ce.fromGC, ToGC: ce.toGC})
	}
	g.Stats.Messages = g.Stats.EdgesByKind[EdgeHandshake] +
		g.Stats.EdgesByKind[EdgeStream] + g.Stats.EdgesByKind[EdgeDatagram]

	if err := g.finalize(); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *Graph) addEdge(e Edge) {
	g.Edges = append(g.Edges, e)
	g.Stats.EdgesByKind[e.Kind]++
}

// splitSpan cuts one schedule interval into segments at the marked points:
// a cutEnd at g closes the segment containing g at g; a cutStart at h opens
// a new segment at h.
func splitSpan(sp ivSpan, ends, starts map[ids.GCount]bool) []ivSpan {
	bounds := []ids.GCount{sp.first}
	for g := range ends {
		if g >= sp.first && g < sp.last {
			bounds = append(bounds, g+1)
		}
	}
	for h := range starts {
		if h > sp.first && h <= sp.last {
			bounds = append(bounds, h)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	var out []ivSpan
	for i, b := range bounds {
		if i > 0 && b == bounds[i-1] {
			continue // dedup
		}
		if len(out) > 0 {
			out[len(out)-1].last = b - 1
		}
		out = append(out, ivSpan{first: b, last: sp.last, thread: sp.thread})
	}
	return out
}

// notifyEdges gathers each VM's notify edges, in counter order, as
// ⟨event, event⟩ pairs before segmentation: the notifier's event → each
// woken thread's next event.
func notifyEdges(g *Graph, vms []*vmLogs) []crossEdge {
	var cross []crossEdge
	for vi, v := range vms {
		global := &v.sched.Streams[0]
		for _, gc := range slices.Sorted(maps.Keys(global.Notifies)) {
			nt, ok := v.threadAt(gc)
			if !ok {
				continue
			}
			for _, wt := range global.Notifies[gc] {
				ivs := global.Runs[wt]
				i := sort.Search(len(ivs), func(i int) bool { return ivs[i].Last > gc })
				if i == len(ivs) || ivs[i].First <= gc {
					// Never ran again, or the "next" interval contains the
					// notify counter itself (a self-notify — program order
					// already covers it).
					g.Stats.UnmatchedNotifies++
					continue
				}
				cross = append(cross, crossEdge{
					kind: EdgeNotify, fromVM: vi, fromThread: nt, fromGC: gc,
					toVM: vi, toThread: wt, toGC: ivs[i].First,
				})
			}
		}
	}
	return cross
}

// messageEdge is the edge kind of each message kind.
var messageEdge = map[tracelog.MessageKind]EdgeKind{
	tracelog.MsgHandshake: EdgeHandshake,
	tracelog.MsgStream:    EdgeStream,
	tracelog.MsgDatagram:  EdgeDatagram,
}

// appendMessageEdges appends an edge for each matched message, with the
// threads that executed its two events. A message whose end no thread
// executed counts as unmatched.
func appendMessageEdges(cross []crossEdge, g *Graph, vms []*vmLogs, msgs []tracelog.Message) []crossEdge {
	for _, m := range msgs {
		fvi, tvi := g.vmIndex[m.From.VM], g.vmIndex[m.To.VM]
		ft, okF := vms[fvi].threadAt(m.From.GC)
		tt, okT := vms[tvi].threadAt(m.To.GC)
		if !okF || !okT {
			switch m.Kind {
			case tracelog.MsgHandshake:
				g.Stats.UnmatchedHandshakes++
			case tracelog.MsgStream:
				g.Stats.UnmatchedWrites++
			default:
				g.Stats.DanglingDatagrams++
			}
			continue
		}
		cross = append(cross, crossEdge{
			kind: messageEdge[m.Kind], fromVM: fvi, fromThread: ft, fromGC: m.From.GC,
			toVM: tvi, toThread: tt, toGC: m.To.GC,
		})
	}
	return cross
}

// finalize topologically sorts the graph (proving acyclicity), then assigns
// logical start times and vector clocks in one forward pass.
func (g *Graph) finalize() error {
	n := len(g.Nodes)
	g.In = make([][]int32, n)
	g.Out = make([][]int32, n)
	indeg := make([]int, n)
	for ei, e := range g.Edges {
		g.Out[e.From] = append(g.Out[e.From], int32(ei))
		g.In[e.To] = append(g.In[e.To], int32(ei))
		indeg[e.To]++
	}
	queue := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	g.Order = make([]NodeID, 0, n)
	g.Start = make([]uint64, n)
	g.VC = make([][]uint64, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		g.Order = append(g.Order, id)

		vc := make([]uint64, len(g.VMs))
		for _, ei := range g.In[id] {
			e := g.Edges[ei]
			if f := g.Start[e.From] + g.Nodes[e.From].Events(); f > g.Start[id] {
				g.Start[id] = f
			}
			for i, c := range g.VC[e.From] {
				if c > vc[i] {
					vc[i] = c
				}
			}
		}
		vi := g.vmIndex[g.Nodes[id].VM]
		vc[vi] = uint64(g.Nodes[id].Last) + 1
		g.VC[id] = vc

		for _, ei := range g.Out[id] {
			to := g.Edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	if len(g.Order) != n {
		stuck := 0
		var sample Node
		for i, d := range indeg {
			if d > 0 {
				if stuck == 0 {
					sample = g.Nodes[i]
				}
				stuck++
			}
		}
		return fmt.Errorf("causal: happens-before graph has a cycle through %d nodes (e.g. vm %d thread %d [%d,%d]) — log sets are mutually inconsistent",
			stuck, sample.VM, sample.Thread, sample.First, sample.Last)
	}
	return nil
}

// HasWall reports whether every VM recorded at least two distinct wall-clock
// anchors, i.e. whether counter values can be mapped to wall time.
func (g *Graph) HasWall() bool {
	for _, vm := range g.VMs {
		ts := vm.Timestamps
		if len(ts) < 2 || ts[0].GC == ts[len(ts)-1].GC {
			return false
		}
	}
	return true
}

// WallAt interpolates the wall-clock time (unix nanos) at which VM vi's
// counter reached gc, from the VM's sampled anchors. Values outside the
// anchored range clamp to the nearest anchor. ok is false when the VM has no
// anchors.
func (g *Graph) WallAt(vi int, gc ids.GCount) (int64, bool) {
	ts := g.VMs[vi].Timestamps
	if len(ts) == 0 {
		return 0, false
	}
	i := sort.Search(len(ts), func(i int) bool { return ts[i].GC >= gc })
	if i == len(ts) {
		return ts[len(ts)-1].Wall, true
	}
	if ts[i].GC == gc || i == 0 {
		return ts[i].Wall, true
	}
	lo, hi := ts[i-1], ts[i]
	if hi.GC == lo.GC {
		return lo.Wall, true
	}
	frac := float64(gc-lo.GC) / float64(hi.GC-lo.GC)
	return lo.Wall + int64(frac*float64(hi.Wall-lo.Wall)), true
}
