// djexplore runs schedule-space exploration campaigns over generated
// programs (internal/progen + internal/explore): record once, synthesize
// many legal alternative schedules, replay each deterministically, and
// report any schedule whose outcome diverges from the sequential model.
//
//	djexplore -seed 7                     # explore one program seed
//	djexplore -seed 0 -campaign 50        # 50 consecutive seeds
//	djexplore -order global               # one order mode (default both)
//	djexplore -budget 20 -depth 3         # schedules per seed, directive depth
//	djexplore -plant -shrink              # planted-bug fixture, minimize findings
//	djexplore -json                       # machine-readable report
//
// Exit status: 0 when every explored schedule replayed deterministically and
// matched the model, 1 when findings (or internal errors) surfaced, 2 on
// usage errors.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/explore"
	"repro/internal/ids"
	"repro/internal/progen"

	"flag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the tool's output document: one entry per explored order mode.
type report struct {
	Reports  []modeReport `json:"reports"`
	Findings int          `json:"findings"`
}

type modeReport struct {
	Order    string                  `json:"order"`
	Campaign *explore.CampaignResult `json:"campaign"`
	Shrunk   []explore.Finding       `json:"shrunk,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djexplore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "first program seed (>= 0)")
	campaign := fs.Int("campaign", 1, "number of consecutive program seeds to explore")
	budget := fs.Int("budget", 20, "distinct schedules to replay per seed (> 0)")
	depth := fs.Int("depth", 3, "max directives per random schedule (> 0)")
	order := fs.String("order", "both", "order mode to explore: global, sharded, or both")
	shrink := fs.Bool("shrink", false, "minimize each finding to its smallest directive list")
	plant := fs.Bool("plant", false, "use the planted racy-bug fixture program")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "djexplore: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *seed < 0 {
		fmt.Fprintf(stderr, "djexplore: -seed %d: program seeds are non-negative\n", *seed)
		return 2
	}
	if *budget <= 0 {
		fmt.Fprintf(stderr, "djexplore: -budget %d: need at least one schedule\n", *budget)
		return 2
	}
	if *depth <= 0 || *campaign <= 0 {
		fmt.Fprintf(stderr, "djexplore: -depth and -campaign must be positive\n")
		return 2
	}
	var modes []ids.OrderMode
	switch *order {
	case "global":
		modes = []ids.OrderMode{ids.OrderGlobal}
	case "sharded":
		modes = []ids.OrderMode{ids.OrderSharded}
	case "both":
		modes = []ids.OrderMode{ids.OrderGlobal, ids.OrderSharded}
	default:
		fmt.Fprintf(stderr, "djexplore: -order %q: want global, sharded, or both\n", *order)
		return 2
	}

	var rep report
	for _, mode := range modes {
		opts := explore.Options{
			Seed:      *seed,
			Prog:      progen.Opts{PlantBug: *plant},
			OrderMode: mode,
			Budget:    *budget,
			MaxDepth:  *depth,
		}
		res, err := explore.Campaign(opts, *campaign)
		if err != nil {
			fmt.Fprintf(stderr, "djexplore: %v\n", err)
			return 1
		}
		mr := modeReport{Order: orderName(mode), Campaign: res}
		if *shrink {
			for _, f := range res.Findings {
				so := opts
				so.Seed = f.Seed
				min, _, err := explore.Shrink(so, f)
				if err != nil {
					fmt.Fprintf(stderr, "djexplore: shrink: %v\n", err)
					return 1
				}
				mr.Shrunk = append(mr.Shrunk, min)
			}
		}
		rep.Reports = append(rep.Reports, mr)
		rep.Findings += len(res.Findings)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "djexplore: %v\n", err)
			return 1
		}
	} else {
		printHuman(stdout, &rep)
	}
	if rep.Findings > 0 {
		return 1
	}
	return 0
}

func orderName(m ids.OrderMode) string {
	if m == ids.OrderSharded {
		return "sharded"
	}
	return "global"
}

func printHuman(w io.Writer, rep *report) {
	for _, mr := range rep.Reports {
		c := mr.Campaign
		fmt.Fprintf(w, "%-7s order: %d seeds, %d schedules replayed (%d attempts), %d findings\n",
			mr.Order, c.Seeds, c.Schedules, c.Attempts, len(c.Findings))
		fmt.Fprintf(w, "        preemption depth:")
		max := 0
		for d := range c.Preemptions {
			if d > max {
				max = d
			}
		}
		for d := 0; d <= max; d++ {
			if n := c.Preemptions[d]; n > 0 {
				fmt.Fprintf(w, " %d:%d", d, n)
			}
		}
		fmt.Fprintln(w)
		for _, f := range c.Findings {
			fmt.Fprintf(w, "        FINDING %v\n", f)
		}
		for _, f := range mr.Shrunk {
			fmt.Fprintf(w, "        shrunk to %d directive(s): %v\n", len(f.Directives), f.Directives)
		}
	}
	if rep.Findings == 0 {
		fmt.Fprintln(w, "all explored schedules replayed deterministically and matched the model")
	}
}
