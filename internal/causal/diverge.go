package causal

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ids"
)

// Cause is one event range that causally precedes a divergence point.
type Cause struct {
	VM     ids.DJVMID
	Thread ids.ThreadNum
	First  ids.GCount
	Last   ids.GCount
	// Finish is the range's logical finish time — higher means more recent.
	Finish uint64
	// Dist is the number of happens-before edges between this range and the
	// divergence point (1 = direct predecessor).
	Dist int
	// Via is the kind of the edge leading out of this range toward the
	// divergence point.
	Via EdgeKind
}

// WhyDiverged walks the happens-before graph backwards from the event at
// ⟨vm, gc⟩ and returns the k most recent causally-preceding event ranges
// across all VMs — the recorded history that fed the diverged event. When gc
// lies beyond the VM's last node (a divergence detected after the final
// recorded event), the walk starts from the VM's last node. The ranges come
// most recent first; ranges that finish together are nearest first, then in
// ⟨VM, thread, First⟩ order.
func WhyDiverged(g *Graph, vm ids.DJVMID, gc ids.GCount, k int) ([]Cause, error) {
	vi, ok := g.vmIndex[vm]
	if !ok {
		return nil, fmt.Errorf("causal: no log set for vm %d", vm)
	}
	start, ok := g.NodeAt(vm, gc)
	if !ok {
		nodes := g.byVM[vi]
		if len(nodes) == 0 {
			return nil, fmt.Errorf("causal: vm %d recorded no schedule intervals", vm)
		}
		// Clamp to the last node at or before gc (gc may be FinalGC or the
		// counter value of an event that never committed).
		i := sort.Search(len(nodes), func(i int) bool { return g.Nodes[nodes[i]].First > gc })
		if i == 0 {
			return nil, fmt.Errorf("causal: vm %d has no events at or before counter %d", vm, gc)
		}
		start = nodes[i-1]
	}

	// Reverse BFS over in-edges, recording each ancestor's distance and the
	// edge kind it reaches the divergence point through.
	type visit struct {
		dist int
		via  EdgeKind
	}
	seen := map[NodeID]visit{start: {dist: 0}}
	queue := []NodeID{start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, ei := range g.In[id] {
			e := g.Edges[ei]
			if _, done := seen[e.From]; done {
				continue
			}
			// via is the edge leaving the ancestor along the (BFS-shortest)
			// path toward the divergence point.
			seen[e.From] = visit{dist: seen[id].dist + 1, via: e.Kind}
			queue = append(queue, e.From)
		}
	}
	delete(seen, start) // "preceding" excludes the divergence node itself

	causes := make([]Cause, 0, len(seen))
	for id, v := range seen {
		n := g.Nodes[id]
		causes = append(causes, Cause{
			VM: n.VM, Thread: n.Thread, First: n.First, Last: n.Last,
			Finish: g.Start[id] + n.Events(), Dist: v.dist, Via: v.via,
		})
	}
	slices.SortFunc(causes, func(a, b Cause) int {
		return cmp.Or(cmp.Compare(b.Finish, a.Finish), cmp.Compare(a.Dist, b.Dist),
			cmp.Compare(a.VM, b.VM), cmp.Compare(a.Thread, b.Thread), cmp.Compare(a.First, b.First))
	})
	if k > 0 && len(causes) > k {
		causes = causes[:k]
	}
	return causes, nil
}
