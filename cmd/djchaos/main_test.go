package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append([]string{"-dir", t.TempDir()}, args...), &out, &errOut)
	return code, out.String(), errOut.String()
}

// A two-seed campaign passes for the lone primary and for a group of three,
// and both emit the one report schema: kill counters and WAL band per member,
// line epoch, plan stability.
func TestCampaignJSON(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		members int
		kills   int
	}{
		{"members1", []string{"-members", "1"}, 1, 1},
		{"members3", []string{"-members", "3", "-kills", "1"}, 3, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// The runs mostly wait (fsyncs, the supervisor's fail window), so
			// the two campaigns overlap without starving each other.
			t.Parallel()
			args := append([]string{"-seed", "1", "-campaign", "2", "-json"}, tc.args...)
			code, out, errOut := runCmd(t, args...)
			if code != 0 {
				t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(out)))
			dec.DisallowUnknownFields()
			var rep campaignReport
			if err := dec.Decode(&rep); err != nil {
				t.Fatalf("report does not parse as the campaign schema: %v\n%s", err, out)
			}
			if rep.Total != 2 || rep.Passed != rep.Total || rep.Failed != 0 || !rep.OK || len(rep.Runs) != 2 {
				t.Fatalf("campaign %d/%d passed, %d failed, ok=%v, %d runs", rep.Passed, rep.Total, rep.Failed, rep.OK, len(rep.Runs))
			}
			for i, r := range rep.Runs {
				if r.Seed != uint64(1+i) || r.Members != tc.members || r.Kills != tc.kills {
					t.Fatalf("run %d: seed %d members %d kills %d", i, r.Seed, r.Members, r.Kills)
				}
				if !r.PlanStable || !r.Converged || !r.OnLine || !r.WALBounded || r.Recoveries != uint64(tc.kills) {
					t.Fatalf("run %d violates an invariant: %+v", i, r)
				}
				if r.LineEpoch == 0 || r.LineEpoch > r.Epochs {
					t.Fatalf("run %d: line epoch %d of %d epochs", i, r.LineEpoch, r.Epochs)
				}
				if len(r.MemberReports) != tc.members {
					t.Fatalf("run %d: %d member reports, want %d", i, len(r.MemberReports), tc.members)
				}
				killed := 0
				for _, m := range r.MemberReports {
					if m.KillAt > 0 {
						killed++
					}
					if m.Truncations < 3 || m.WALMin <= 0 || m.WALMax < m.WALMin {
						t.Fatalf("run %d member %s: truncations %d, wal band [%d,%d]", i, m.Name, m.Truncations, m.WALMin, m.WALMax)
					}
				}
				if killed != tc.kills {
					t.Fatalf("run %d: %d members carry a kill counter, want %d", i, killed, tc.kills)
				}
			}
		})
	}
}

// Usage errors exit 2 — including the removed -group switch.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-group"},
		{"-notaflag"},
		{"-members", "0"},
		{"-campaign", "0"},
		{"-kills", "-1"},
		{"-seed", "x"},
		{"stray-positional-arg"},
	}
	for _, args := range cases {
		if code, out, _ := runCmd(t, args...); code != 2 {
			t.Fatalf("args %v: exit %d, want 2; stdout:\n%s", args, code, out)
		}
	}
}

// A horizon too small to place a fault window fails the seed with the
// generator's error instead of panicking.
func TestSmallHorizonFailsSeed(t *testing.T) {
	for h := 1; h < 8; h++ {
		code, out, _ := runCmd(t, "-members", "1", "-horizon", strconv.Itoa(h), "-campaign", "3", "-json")
		if code != 1 {
			t.Fatalf("-horizon %d: exit %d, want 1; stdout:\n%s", h, code, out)
		}
		var rep campaignReport
		if err := json.Unmarshal([]byte(out), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 3 || rep.Runs[0].Err == "" {
			t.Fatalf("-horizon %d: %d failed, first err %q", h, rep.Failed, rep.Runs[0].Err)
		}
	}
}
