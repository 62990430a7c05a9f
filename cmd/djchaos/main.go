// djchaos is the chaos-campaign soak runner: it expands seeds into fault
// schedules, runs the supervised kvapp members under each, and asserts the
// robustness invariants end to end —
//
//   - every plan-killed member crashes and is restarted by the supervisor
//     from its anchor on the solved recovery line (a complete group epoch,
//     not a fallback checkpoint) while the survivors keep running;
//   - every member's recovered store digest equals its undisturbed baseline
//     replay's, and so do the cluster digests folded over them (convergence);
//   - re-expanding a seed yields the identical plan bytes, and the plan
//     recorded into every salvaged trace round-trips identically;
//   - checkpoint-anchored WAL truncation keeps every member's on-disk log
//     bounded across the run's checkpoint cycles, and no truncation fails.
//
// Usage:
//
//	djchaos [-members N] [-kills N] -seed 1 -campaign 100 [-json] [-dir DIR] [-horizon N] [-keep N]
//
// The campaign runs seeds seed..seed+campaign-1 over N coordinated members;
// -members 1 is the lone supervised primary. Each seed's member WALs are
// left under DIR/seed-N for djrecover; without -dir they go to a temp dir
// that is removed when the campaign ends.
// Exit status 0 means every run satisfied every invariant, 1 that some run
// did not, 2 a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/ids"
	"repro/internal/kvapp"
)

// memberReport is one member's share of a run: its kill point and the WAL
// boundedness evidence.
type memberReport struct {
	Name        string `json:"name"`
	KillAt      uint64 `json:"kill_at"` // 0: the plan spares this member
	Rounds      int    `json:"rounds"`
	Truncations int    `json:"truncations"`
	WALMin      int64  `json:"wal_steady_min"`
	WALMax      int64  `json:"wal_steady_max"`
}

type runReport struct {
	Seed          uint64         `json:"seed"`
	Members       int            `json:"members"`
	Kills         int            `json:"kills"`
	Epochs        uint64         `json:"epochs"`
	LineEpoch     uint64         `json:"line_epoch"`
	OnLine        bool           `json:"on_line"`
	Converged     bool           `json:"converged"`
	Recovered     string         `json:"recovered_cluster_digest"`
	Baseline      string         `json:"baseline_cluster_digest"`
	WALBounded    bool           `json:"wal_bounded"`
	PlanStable    bool           `json:"plan_stable"`
	Recoveries    uint64         `json:"recoveries"`
	MTTRms        float64        `json:"mttr_ms"`
	MemberReports []memberReport `json:"member_reports"`
	Err           string         `json:"err,omitempty"`
}

func (r runReport) ok() bool {
	return r.Err == "" && r.Converged && r.OnLine && r.WALBounded && r.PlanStable &&
		r.Recoveries == uint64(r.Kills)
}

type campaignReport struct {
	Runs      []runReport `json:"runs"`
	Total     int         `json:"total"`
	Passed    int         `json:"passed"`
	Failed    int         `json:"failed"`
	OK        bool        `json:"ok"`
	ElapsedMS int64       `json:"elapsed_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "first seed of the campaign")
	campaign := fs.Int("campaign", 1, "number of consecutive seeds to run")
	jsonOut := fs.Bool("json", false, "emit the campaign report as JSON")
	dir := fs.String("dir", "", "working directory, kept after the run (default: a fresh temp dir, removed)")
	horizon := fs.Uint64("horizon", 0, "fault horizon in counter units (0 = default)")
	keep := fs.Int("keep", 0, "checkpoint retention for WAL truncation (0 = default)")
	members := fs.Int("members", 3, "supervised member VMs per run (1 = a lone primary)")
	kills := fs.Int("kills", 0, "members to fail-stop per run (0 = seeded choice)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "djchaos: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *members <= 0 || *campaign <= 0 || *kills < 0 || *keep < 0 {
		fmt.Fprintf(stderr, "djchaos: -members and -campaign must be positive, -kills and -keep non-negative\n")
		return 2
	}

	base := *dir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "djchaos-")
		if err != nil {
			fmt.Fprintf(stderr, "djchaos: %v\n", err)
			return 1
		}
		defer os.RemoveAll(base)
	}

	start := time.Now()
	rep := campaignReport{Total: *campaign}
	for i := 0; i < *campaign; i++ {
		s := *seed + uint64(i)
		r := runOne(s, filepath.Join(base, fmt.Sprintf("seed-%d", s)), ids.GCount(*horizon), *keep, *members, *kills)
		rep.Runs = append(rep.Runs, r)
		status := "ok"
		if r.ok() {
			rep.Passed++
		} else {
			rep.Failed++
			status = "FAIL"
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "seed %-6d %-4s members %d kills %d epochs %-3d line %-3d online %-5v mttr %.1fms",
				r.Seed, status, r.Members, r.Kills, r.Epochs, r.LineEpoch, r.OnLine, r.MTTRms)
			for _, m := range r.MemberReports {
				fmt.Fprintf(stdout, "  %s kill@%d wal [%d,%d]", m.Name, m.KillAt, m.WALMin, m.WALMax)
			}
			if r.Err != "" {
				fmt.Fprintf(stdout, "  err: %s", r.Err)
			}
			fmt.Fprintln(stdout)
		}
	}
	rep.OK = rep.Failed == 0
	rep.ElapsedMS = time.Since(start).Milliseconds()

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "djchaos: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "campaign: %d/%d passed in %v\n", rep.Passed, rep.Total, time.Since(start).Round(time.Millisecond))
	}
	if !rep.OK {
		return 1
	}
	return 0
}

func runOne(seed uint64, dir string, horizon ids.GCount, keep, members, kills int) runReport {
	r := runReport{Seed: seed, Members: members}
	names := make([]string, members)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i+1)
	}
	opts := chaos.Options{
		Members: names, Hosts: []string{"p1", "p2"}, Horizon: horizon, Kills: kills,
	}
	if opts.Horizon <= 0 {
		opts.Horizon = 2000
	}
	// Seed determinism: two independent expansions must agree byte-for-byte.
	p1, err := chaos.Generate(seed, opts)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	p2, err := chaos.Generate(seed, opts)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.PlanStable = string(p1.Encode()) == string(p2.Encode())
	r.Kills = len(p1.Kills)

	res, err := kvapp.RunSupervised(kvapp.SupervisedConfig{
		Dir: dir, Seed: seed, Horizon: horizon, Keep: keep, Plan: &p1,
	})
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Epochs = res.Epochs
	if res.Line != nil {
		r.LineEpoch = res.Line.Epoch
	}
	r.OnLine = res.OnLine
	r.Converged = res.Converged
	r.Recovered = fmt.Sprintf("%016x", res.ClusterDigest)
	r.Baseline = fmt.Sprintf("%016x", res.BaselineClusterDigest)
	// The executed plan must be the seed's plan, and the copy salvaged from
	// every crashed member's trace must round-trip identically. The
	// supervisor's outcome is the record of each recovery and its latency.
	if string(res.Plan.Encode()) != string(p1.Encode()) {
		r.PlanStable = false
	}
	var mttr time.Duration
	for _, ep := range res.Outcome.Episodes {
		mttr += ep.RecoverLatency
		r.Recoveries += uint64(len(ep.Recoveries))
		for _, rec := range ep.Recoveries {
			got, ok, err := chaos.PlanFromSet(rec.Logs)
			if err != nil || !ok || string(got.Encode()) != string(p1.Encode()) {
				r.PlanStable = false
			}
		}
	}
	if n := len(res.Outcome.Episodes); n > 0 {
		r.MTTRms = float64(mttr) / float64(n) / float64(time.Millisecond)
	}
	// WAL boundedness, member by member: past the warmup the post-truncation
	// size must oscillate in a narrow band, not trend upward. Require ≥3
	// truncation cycles so the claim is about repeated compaction, then bound
	// the steady-state tail. A truncation that failed outright fails the seed.
	r.WALBounded = true
	killAt := make(map[int]uint64, len(p1.Kills))
	for _, k := range p1.Kills {
		killAt[k.Member] = uint64(k.At)
	}
	for i, m := range res.Members {
		mr := memberReport{Name: m.Name, KillAt: killAt[i], Rounds: m.Rounds, Truncations: len(m.WALSizes)}
		mr.WALMin, mr.WALMax = m.SteadyWAL()
		if mr.Truncations < 3 || mr.WALMax > 3*mr.WALMin {
			r.WALBounded = false
		}
		if len(m.TruncateErrs) > 0 && r.Err == "" {
			r.Err = fmt.Sprintf("member %s: %d WAL truncations failed, first: %v", m.Name, len(m.TruncateErrs), m.TruncateErrs[0])
		}
		r.MemberReports = append(r.MemberReports, mr)
	}
	return r
}
