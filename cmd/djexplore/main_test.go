package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// A clean exploration exits 0 in both order modes.
func TestRunClean(t *testing.T) {
	code, out, errOut := runCmd(t, "-seed", "1", "-budget", "5", "-order", "both")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "matched the model") {
		t.Fatalf("missing pass line in output:\n%s", out)
	}
}

// The planted bug makes the tool exit 1 and -shrink reports a minimal
// reproducer.
func TestRunPlantedBugFails(t *testing.T) {
	code, out, _ := runCmd(t, "-seed", "42", "-plant", "-shrink", "-budget", "20", "-order", "global")
	if code != 1 {
		t.Fatalf("exit %d, want 1 for planted bug; output:\n%s", code, out)
	}
	if !strings.Contains(out, "FINDING") || !strings.Contains(out, "shrunk to") {
		t.Fatalf("missing finding/shrink lines:\n%s", out)
	}
}

// Usage errors exit 2.
func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-seed", "-3"},          // bad seed
		{"-budget", "0"},         // zero budget
		{"-budget", "-5"},        // negative budget
		{"-order", "bogus"},      // unknown order mode
		{"-depth", "0"},          // zero depth
		{"-campaign", "0"},       // zero campaign
		{"-notaflag"},            // unknown flag
		{"stray-positional-arg"}, // stray operand
	}
	for _, args := range cases {
		if code, _, _ := runCmd(t, args...); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}

// -json emits the documented schema.
func TestRunJSONSchema(t *testing.T) {
	code, out, errOut := runCmd(t, "-seed", "2", "-budget", "4", "-order", "global", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	var doc struct {
		Reports []struct {
			Order    string `json:"order"`
			Campaign struct {
				Seeds       int            `json:"seeds"`
				Schedules   int            `json:"schedules"`
				Attempts    int            `json:"attempts"`
				Preemptions map[string]int `json:"preemption_hist"`
			} `json:"campaign"`
			Stats *struct{} `json:"stats"`
		} `json:"reports"`
		Findings int `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, out)
	}
	if len(doc.Reports) != 1 || doc.Reports[0].Order != "global" {
		t.Fatalf("reports: %+v", doc.Reports)
	}
	r := doc.Reports[0]
	if r.Campaign.Seeds != 1 || r.Campaign.Schedules == 0 || r.Campaign.Attempts < r.Campaign.Schedules {
		t.Fatalf("campaign block: %+v", r.Campaign)
	}
	if r.Stats != nil {
		t.Fatal("the report repeats the campaign block as a stats block")
	}
	if len(r.Campaign.Preemptions) == 0 {
		t.Fatal("empty preemption histogram")
	}
	if doc.Findings != 0 {
		t.Fatalf("findings = %d on a clean run", doc.Findings)
	}
}

// JSON findings from a planted-bug run carry the reproducer directives.
func TestRunJSONFindings(t *testing.T) {
	code, out, _ := runCmd(t, "-seed", "42", "-plant", "-budget", "20", "-order", "sharded", "-json")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var doc struct {
		Reports []struct {
			Campaign struct {
				Findings []struct {
					Seed       int64  `json:"seed"`
					Kind       string `json:"kind"`
					Directives []struct {
						Step   int `json:"step"`
						Thread int `json:"thread"`
					} `json:"directives"`
				} `json:"findings"`
			} `json:"campaign"`
		} `json:"reports"`
		Findings int `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, out)
	}
	if doc.Findings == 0 || len(doc.Reports[0].Campaign.Findings) == 0 {
		t.Fatalf("no findings in JSON: %s", out)
	}
	f := doc.Reports[0].Campaign.Findings[0]
	if f.Kind != "state-mismatch" || f.Seed != 42 || len(f.Directives) == 0 {
		t.Fatalf("finding: %+v", f)
	}
}
