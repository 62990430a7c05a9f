package explore

import "fmt"

// Shrink minimizes a finding's directive list to a locally minimal
// reproducer: the smallest subset of forced scheduling decisions that still
// provokes a finding of the same kind. It is a delta-debugging loop — first
// greedily dropping contiguous chunks (halving), then single directives, to a
// fixpoint — and is deterministic: schedule simulation, composition, and
// replay are all pure functions of (program seed, directives).
//
// The returned finding's Directives are re-derived from the final simulation
// (only directives that take effect are kept), so the reproducer is exact:
// feeding it back to Run or Shrink provokes the same divergence. The attempts
// count is the number of candidate schedules replayed while shrinking.
func Shrink(opts Options, f Finding) (Finding, int, error) {
	opts = opts.withDefaults()
	if opts.Seed != f.Seed || opts.OrderMode != f.OrderMode {
		return f, 0, fmt.Errorf("explore: shrink options (seed %d, %v) do not match finding (seed %d, %v)",
			opts.Seed, opts.OrderMode, f.Seed, f.OrderMode)
	}
	e, err := newExplorer(opts)
	if err != nil {
		return f, 0, err
	}
	attempts := 0
	// reproduces reports whether dirs still provokes the finding, and if so
	// returns the re-simulated finding (with only the effective directives).
	reproduces := func(dirs []Directive) (*Finding, error) {
		sch, err := simulate(e.p, e.atoms, dirs)
		if err != nil {
			return nil, err
		}
		attempts++
		got, err := e.check(sch)
		if err != nil {
			return nil, err
		}
		if got == nil || got.Kind != f.Kind {
			return nil, nil
		}
		return got, nil
	}

	best, err := reproduces(f.Directives)
	if err != nil {
		return f, attempts, err
	}
	if best == nil {
		return f, attempts, fmt.Errorf("explore: finding does not reproduce: %v", f)
	}
	dirs := best.Directives
	for changed := true; changed; {
		changed = false
		// Chunked removal first: drop halves, quarters, ... of the list.
		for size := len(dirs) / 2; size >= 1; size /= 2 {
			for at := 0; at+size <= len(dirs); at++ {
				cand := make([]Directive, 0, len(dirs)-size)
				cand = append(cand, dirs[:at]...)
				cand = append(cand, dirs[at+size:]...)
				got, err := reproduces(cand)
				if err != nil {
					return f, attempts, err
				}
				if got != nil && len(got.Directives) < len(dirs) {
					dirs = got.Directives
					best = got
					changed = true
					// Restart this size pass on the shorter list.
					at = -1
					if size > len(dirs)/2 {
						size = len(dirs) / 2
						if size < 1 {
							size = 1
						}
					}
				}
			}
			if len(dirs) <= 1 {
				break
			}
		}
	}
	return *best, attempts, nil
}
