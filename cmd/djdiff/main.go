// djdiff compares two saved DJVM log sets and reports where they depart:
//
//	djdiff <logdir-a> <logdir-b>
//
// Use it on two recordings of the same program to locate the first
// scheduling or network difference — the root of a divergent outcome —
// instead of eyeballing djtrace dumps. Exits 0 when identical, 1 when
// different, 2 on a usage error or a log set that cannot be read.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/logcheck"
	"repro/internal/tracelog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: djdiff <logdir-a> <logdir-b>")
		return 2
	}
	var sets [2]*tracelog.Set
	for i, dir := range args {
		s, err := tracelog.LoadSet(dir)
		if err != nil {
			fmt.Fprintln(stderr, "djdiff:", err)
			return 2
		}
		sets[i] = s
	}
	rep, err := logcheck.Diff(sets[0], sets[1])
	if err != nil {
		fmt.Fprintln(stderr, "djdiff:", err)
		return 2
	}
	if rep.Same() {
		fmt.Fprintln(stdout, "identical: the two log sets describe the same execution")
		return 0
	}
	for _, line := range rep.Lines {
		fmt.Fprintln(stdout, line)
	}
	return 1
}
