package dejavu_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/dejavu"
)

// The facade's supervision-and-chaos surface end to end for a lone node — a
// group of one: a chaos plan is generated and stamped into the trace, the WAL
// is truncated at a checkpoint anchor, the supervisor stands down cleanly,
// and the compacted log recovers into a set that still carries the plan and
// replays from the retained checkpoint.
func TestSuperviseChaosTruncateFacade(t *testing.T) {
	opts := dejavu.ChaosOptions{Members: []string{"a"}, Hosts: []string{"b"}, Horizon: 1000}
	plan, err := dejavu.GenerateChaos(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := dejavu.GenerateChaos(5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(plan.Encode()) != string(plan2.Encode()) {
		t.Fatal("GenerateChaos is not deterministic")
	}

	walPath := filepath.Join(t.TempDir(), "node.wal")
	net := dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 5})
	rec, err := dejavu.NewNode(dejavu.Config{ID: 1, Mode: dejavu.Record, Network: net, Host: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableWAL(walPath, dejavu.WALOptions{SyncEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordChaosPlan(plan); err != nil {
		t.Fatal(err)
	}

	app := func(t *dejavu.Thread) {
		var x dejavu.SharedInt
		for r := 0; r < 3; r++ {
			for i := 0; i < 5; i++ {
				x.Set(t, x.Get(t)+1)
			}
			dejavu.CheckpointTake(t, func() []byte { return []byte("state") })
		}
	}
	sup := dejavu.Supervise([]dejavu.SuperMember{{Name: "a", Node: rec, WALPath: walPath}}, dejavu.SuperConfig{
		Heartbeat:   time.Millisecond,
		FailAfter:   time.Second,
		Coordinator: dejavu.NewGroupCoordinator(1),
	})
	rec.Start(app)
	rec.Wait()
	sup.Stop()
	if out, err := sup.Wait(); err != nil || out == nil || out.Detected || len(out.Episodes) != 0 {
		t.Fatalf("clean supervision run: %+v, %v", out, err)
	}

	st, err := rec.TruncateAt(1)
	if err != nil {
		t.Fatalf("TruncateAt: %v", err)
	}
	if st.BaseGC == 0 {
		t.Fatal("truncation anchored at zero")
	}

	logs, rep, err := dejavu.Recover(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseGC != st.BaseGC {
		t.Fatalf("recovered base %d, truncation stamped %d", rep.BaseGC, st.BaseGC)
	}
	got, ok, err := dejavu.ChaosPlanFromLogs(logs)
	if err != nil || !ok {
		t.Fatalf("plan lost in truncation: ok=%v err=%v", ok, err)
	}
	if string(got.Encode()) != string(plan.Encode()) {
		t.Fatal("recovered plan differs from the recorded one")
	}

	cp, err := dejavu.CheckpointLatest(logs)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := dejavu.NewNode(dejavu.Config{
		ID: 1, Mode: dejavu.Replay, Network: dejavu.NewNetwork(dejavu.NetworkConfig{}),
		Host: "a", ReplayLogs: logs,
		Resume:       &cp.Resume,
		StopAtLogEnd: true,
		StallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2.Start(app)
	rep2.Wait()
}

// The same surface with two members: a chaos plan is generated
// deterministically and stamped into a member's trace, two nodes run
// coordinated checkpoint rounds through GroupCheckpoint, the supervisor
// stands down cleanly after both members finish, and SolveRecoveryLine finds
// the final complete epoch across both logs.
func TestGroupFacade(t *testing.T) {
	opts := dejavu.ChaosOptions{
		Members: []string{"a", "b"}, Hosts: []string{"p"}, Horizon: 500,
	}
	plan, err := dejavu.GenerateChaos(11, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := dejavu.GenerateChaos(11, opts)
	if err != nil {
		t.Fatal(err)
	}
	if string(plan.Encode()) != string(plan2.Encode()) {
		t.Fatal("GenerateChaos is not deterministic")
	}

	dir := t.TempDir()
	net := dejavu.NewNetwork(dejavu.NetworkConfig{Seed: 11})
	coord := dejavu.NewGroupCoordinator(1, 2)
	var nodes []*dejavu.Node
	var members []dejavu.SuperMember
	for i, host := range []string{"a", "b"} {
		n, err := dejavu.NewNode(dejavu.Config{
			ID: dejavu.DJVMID(i + 1), Mode: dejavu.Record, Network: net, Host: host,
		})
		if err != nil {
			t.Fatal(err)
		}
		wal := filepath.Join(dir, host+".wal")
		if err := n.EnableWAL(wal, dejavu.WALOptions{SyncEvery: 1}); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		members = append(members, dejavu.SuperMember{Name: host, Node: n, WALPath: wal})
	}
	if err := nodes[0].RecordChaosPlan(plan); err != nil {
		t.Fatal(err)
	}

	gsup := dejavu.Supervise(members, dejavu.SuperConfig{
		FailAfter:   10 * time.Second,
		Coordinator: coord,
	})
	for _, n := range nodes {
		n := n
		n.Start(func(th *dejavu.Thread) {
			var x dejavu.SharedInt
			for r := 0; r < 3; r++ {
				for i := 0; i < 5; i++ {
					x.Set(th, x.Get(th)+1)
				}
				dejavu.GroupCheckpoint(coord, th, func() []byte { return []byte("state") })
			}
		})
	}
	for _, n := range nodes {
		n.Wait()
	}
	gsup.Stop()
	out, err := gsup.Wait()
	if err != nil {
		t.Fatalf("group Wait: %v", err)
	}
	if out == nil || out.Detected {
		t.Fatalf("clean group run reported detection: %+v", out)
	}
	if got := coord.Epochs(); got != 3 {
		t.Fatalf("completed epochs = %d, want 3", got)
	}

	for _, n := range nodes {
		n.Close()
	}
	got, ok, err := dejavu.ChaosPlanFromLogs(nodes[0].Logs())
	if err != nil || !ok {
		t.Fatalf("group plan lost: ok=%v err=%v", ok, err)
	}
	if string(got.Encode()) != string(plan.Encode()) {
		t.Fatal("recovered group plan differs from the recorded one")
	}

	sol, err := dejavu.SolveRecoveryLine(nodes[0].Logs(), nodes[1].Logs())
	if err != nil {
		t.Fatalf("SolveRecoveryLine: %v", err)
	}
	if sol.Line == nil {
		t.Fatalf("no complete recovery line over a clean run: %+v", sol.Candidates)
	}
	if len(sol.Line.Anchors) != 2 {
		t.Fatalf("line anchors %v, want both members", sol.Line.Anchors)
	}
	if sol.Fallbacks() != 0 {
		t.Fatalf("clean run demoted %d epochs: %+v", sol.Fallbacks(), sol.Candidates)
	}
}
