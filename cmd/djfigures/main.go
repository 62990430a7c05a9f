// djfigures reproduces the paper's figures and tables:
//
//	djfigures -figure 1   # Figures 1 & 2: nondeterministic connection
//	                      # pairing, ServerSocketEntry logging, and exact
//	                      # replay of the recorded pairing
//	djfigures -figure 3   # Figure 3: overlapping reads/writes on one socket
//	                      # and exact replay of partial read sizes
//	djfigures -table 1    # Table 1(a)/(b): closed-world server & client
//	djfigures -table 2    # Table 2(a)/(b): open-world server & client
//	djfigures -table logsize  # §6's note: client log size vs message size
//
// -runs sets how many free executions a figure shows first. A table's
// columns mirror the paper: #threads, #critical events, #nw events, log size
// (bytes), and rec ovhd (%) — the percentage increase in execution time of a
// recording run over the plain (passthrough) baseline, the minimum of -reps
// timed runs. -threads lists the thread counts; the sweep uses the first.
// Tables 1 and 2 also replay the recordings of their first thread count.
// Progress goes to stderr. Exits 0 when every replay reproduced its
// recording, 1 when one did not (or a run failed), 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/dejavu"
	"repro/internal/tracelog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("djfigures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figure := fs.Int("figure", 1, "which figure to demonstrate: 1 (and 2) or 3")
	runs := fs.Int("runs", 5, "number of free executions to show before record/replay")
	tableName := fs.String("table", "", "which table to regenerate instead of a figure: 1, 2 or logsize")
	threadList := fs.String("threads", "2,4,8,16,32", "comma-separated thread counts of a table")
	reps := fs.Int("reps", 3, "timing repetitions per table cell (minimum is reported)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	threads, err := parseThreads(*threadList)
	figureSet := false
	fs.Visit(func(f *flag.Flag) { figureSet = figureSet || f.Name == "figure" })
	switch {
	case fs.NArg() != 0 || *runs < 0 || *reps < 1:
		fmt.Fprintln(stderr, "usage: djfigures [-figure 1|3] [-runs N] | -table 1|2|logsize [-threads N,...] [-reps N]")
		return 2
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 2
	case *tableName != "" && figureSet:
		fmt.Fprintln(stderr, "djfigures: -figure and -table are exclusive")
		return 2
	}
	switch {
	case *tableName == "1" || *tableName == "2" || *tableName == "logsize":
		err = table(stdout, stderr, *tableName, threads, *reps)
	case *tableName != "":
		fmt.Fprintln(stderr, "djfigures: -table must be 1, 2 or logsize")
		return 2
	case *figure == 1 || *figure == 2:
		err = figure12(stdout, *runs)
	case *figure == 3:
		err = figure3(stdout, *runs)
	default:
		fmt.Fprintln(stderr, "djfigures: -figure must be 1 or 3")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "djfigures:", err)
		return 1
	}
	return 0
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("djfigures: bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

var errDiverged = errors.New("replay diverged")

func chaos() dejavu.Chaos {
	return dejavu.Chaos{
		ConnectDelayMax: 3 * time.Millisecond,
		DeliverDelayMax: 300 * time.Microsecond,
		RandomEphemeral: true,
	}
}

// nodes creates the two nodes of a figure on one fresh network.
func nodes(mode dejavu.Mode, faults dejavu.Chaos, hosts [2]string, logs [2]*dejavu.Logs) ([2]*dejavu.Node, error) {
	net := dejavu.NewNetwork(dejavu.NetworkConfig{Chaos: faults, Seed: time.Now().UnixNano()})
	var out [2]*dejavu.Node
	for i, host := range hosts {
		node, err := dejavu.NewNode(dejavu.Config{
			ID: dejavu.DJVMID(i + 1), Mode: mode, World: dejavu.ClosedWorld,
			Network: net, Host: host, ReplayLogs: logs[i],
		})
		if err != nil {
			return out, err
		}
		out[i] = node
	}
	return out, nil
}

// failures keeps the first error a node's thread ran into; a thread that
// fails returns, and the figure reports the error once both nodes are done.
type failures struct {
	mu    sync.Mutex
	first error
}

func (f *failures) add(err error) bool {
	if err == nil {
		return false
	}
	f.mu.Lock()
	if f.first == nil {
		f.first = err
	}
	f.mu.Unlock()
	return true
}

// figure12 reproduces the Figure 1 scenario — server threads t1,t2,t3 accept
// connections from client1..3 under variable network delay — and the
// Figure 2 mechanism: the ServerSocketEntries ⟨ServerId, ClientId⟩ each
// accept logs, which replay uses to re-establish the recorded pairing.
func figure12(w io.Writer, runs int) error {
	const n = 3
	type pairing [n]string

	run := func(mode dejavu.Mode, logs [2]*dejavu.Logs) (pairing, [2]*dejavu.Logs, error) {
		var p pairing
		pair, err := nodes(mode, chaos(), [2]string{"server", "client"}, logs)
		if err != nil {
			return p, logs, err
		}
		server, client := pair[0], pair[1]

		var mu sync.Mutex
		var fail failures
		ready := make(chan uint16, 1)
		server.Start(func(main *dejavu.Thread) {
			ss, err := server.Listen(main, 0)
			if fail.add(err) {
				close(ready)
				return
			}
			ready <- ss.Port()
			for i := 0; i < n; i++ {
				i := i
				main.Spawn(func(t *dejavu.Thread) {
					conn, err := ss.Accept(t)
					if fail.add(err) {
						return
					}
					name := make([]byte, 7)
					if fail.add(conn.ReadFull(t, name)) {
						return
					}
					mu.Lock()
					p[i] = string(name)
					mu.Unlock()
					conn.Close(t)
				})
			}
		})
		if port, ok := <-ready; ok {
			client.Start(func(main *dejavu.Thread) {
				for i := 0; i < n; i++ {
					i := i
					main.Spawn(func(t *dejavu.Thread) {
						conn, err := client.Connect(t, dejavu.Addr{Host: "server", Port: port})
						if fail.add(err) {
							return
						}
						conn.Write(t, fmt.Appendf(nil, "client%d", i+1))
						conn.Close(t)
					})
				}
			})
		}
		server.Wait()
		client.Wait()
		server.Close()
		client.Close()
		return p, [2]*dejavu.Logs{server.Logs(), client.Logs()}, fail.first
	}

	fmt.Fprintf(w, "Figure 1: %d server threads accept connections from %d clients under\n", n, n)
	fmt.Fprintln(w, "variable network delay. Free executions pair them differently:")
	for i := 0; i < runs; i++ {
		p, _, err := run(dejavu.Passthrough, [2]*dejavu.Logs{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  execution %d: t1<-%s  t2<-%s  t3<-%s\n", i+1, p[0], p[1], p[2])
	}

	fmt.Fprintln(w, "\nRecord phase:")
	recP, logs, err := run(dejavu.Record, [2]*dejavu.Logs{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  recorded:    t1<-%s  t2<-%s  t3<-%s\n", recP[0], recP[1], recP[2])

	fmt.Fprintln(w, "\nFigure 2: ServerSocketEntries logged at each accept (L1, L2, L3):")
	entries, err := logs[0].Network.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if sse, ok := e.(*tracelog.ServerSocketEntry); ok {
			fmt.Fprintf(w, "  L: serverId=%v  clientId=%v\n", sse.ServerID, sse.ClientID)
		}
	}

	fmt.Fprintln(w, "\nReplay phase (connection pool re-establishes the recorded pairing):")
	for i := 0; i < 2; i++ {
		repP, _, err := run(dejavu.Replay, logs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  replay %d:    t1<-%s  t2<-%s  t3<-%s  identical=%v\n",
			i+1, repP[0], repP[1], repP[2], repP == recP)
		if repP != recP {
			return errDiverged
		}
	}
	return nil
}

// figure3 demonstrates the Figure 3 record/replay scheme for reads and
// writes: two threads write to one socket while the reader's partial read
// sizes are recorded; replay reproduces the exact same byte counts.
func figure3(w io.Writer, runs int) error {
	const writers, msgs, msgLen = 2, 8, 6
	total := writers * msgs * msgLen

	run := func(mode dejavu.Mode, logs [2]*dejavu.Logs) ([]int, string, [2]*dejavu.Logs, error) {
		pair, err := nodes(mode, dejavu.Chaos{DeliverDelayMax: 400 * time.Microsecond, MaxSegment: 5},
			[2]string{"reader", "writer"}, logs)
		if err != nil {
			return nil, "", logs, err
		}
		reader, writer := pair[0], pair[1]

		var sizes []int
		var stream []byte
		var fail failures
		ready := make(chan uint16, 1)
		reader.Start(func(main *dejavu.Thread) {
			ss, err := reader.Listen(main, 0)
			if fail.add(err) {
				close(ready)
				return
			}
			ready <- ss.Port()
			conn, err := ss.Accept(main)
			if fail.add(err) {
				return
			}
			buf := make([]byte, 16)
			for len(stream) < total {
				n, err := conn.Read(main, buf)
				if fail.add(err) {
					return
				}
				sizes = append(sizes, n)
				stream = append(stream, buf[:n]...)
			}
			conn.Close(main)
		})
		if port, ok := <-ready; ok {
			writer.Start(func(main *dejavu.Thread) {
				conn, err := writer.Connect(main, dejavu.Addr{Host: "reader", Port: port})
				if fail.add(err) {
					return
				}
				done := make(chan struct{}, writers)
				for wr := 0; wr < writers; wr++ {
					wr := wr
					main.Spawn(func(t *dejavu.Thread) {
						defer func() { done <- struct{}{} }()
						for m := 0; m < msgs; m++ {
							conn.Write(t, fmt.Appendf(nil, "[w%d#%d]", wr, m))
						}
					})
				}
				for wr := 0; wr < writers; wr++ {
					<-done
				}
				conn.Close(main)
			})
		}
		reader.Wait()
		writer.Wait()
		reader.Close()
		writer.Close()
		return sizes, string(stream), [2]*dejavu.Logs{reader.Logs(), writer.Logs()}, fail.first
	}

	fmt.Fprintln(w, "Figure 3: two threads write to one socket; the reader's partial read")
	fmt.Fprintln(w, "sizes vary across free executions:")
	for i := 0; i < runs; i++ {
		sizes, _, _, err := run(dejavu.Passthrough, [2]*dejavu.Logs{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  execution %d: read sizes %v\n", i+1, sizes)
	}

	fmt.Fprintln(w, "\nRecord phase:")
	recSizes, recStream, logs, err := run(dejavu.Record, [2]*dejavu.Logs{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  recorded: read sizes %v\n", recSizes)
	fmt.Fprintf(w, "  recorded stream: %s\n", recStream)

	fmt.Fprintln(w, "\nReplay phase (reads return exactly the recorded byte counts):")
	repSizes, repStream, _, err := run(dejavu.Replay, logs)
	if err != nil {
		return err
	}
	same := repStream == recStream && len(repSizes) == len(recSizes)
	if same {
		for i := range recSizes {
			same = same && recSizes[i] == repSizes[i]
		}
	}
	fmt.Fprintf(w, "  replayed: read sizes %v\n", repSizes)
	fmt.Fprintf(w, "  replayed stream: %s\n", repStream)
	fmt.Fprintf(w, "  identical: %v\n", same)
	if !same {
		return errDiverged
	}
	return nil
}
