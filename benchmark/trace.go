package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// The span recorder. Spans are recorded from the benchmark's own files, around
// the calls the programs make into each layer's public functions; nothing
// inside the system is instrumented. A thread of a program owns one
// threadTrace, appends to it without locks, and hands it to the tracer when
// the thread ends. With tracing off every threadTrace is nil and each method
// returns after one nil check, which is all the untraced run pays.

// layer is the package a span's time is attributed to in the share.* rows.
type layer uint8

const (
	layerApp layer = iota
	layerCore
	layerDjsock
	layerDjrpc
	layerDjgram
	layerCheckpoint
	layerTracelog
	numLayers
)

var layerNames = [numLayers]string{"app", "core", "djsock", "djrpc", "djgram", "checkpoint", "tracelog"}

type spanName uint8

const (
	spThread spanName = iota // root span: one program thread, start to end
	spHandler
	spShared  // hot: one SharedInt get or set
	spMonitor // hot: one enter+exit pair around a guarded map access
	spNewVM
	spListen
	spConnect
	spAccept
	spWrite
	spRead
	spClose
	spCall
	spServe
	spBind
	spSend
	spReceive
	spTake
	spLatest
	spResume
	spSave
	spLoad
	spIndexSchedule
	spIndexNetwork
	spIndexDatagram
	spWALSync
	spTruncate
	spRecover
	numSpans
)

var spanDefs = [numSpans]struct {
	name  string
	layer layer
}{
	spThread:        {"thread", layerApp},
	spHandler:       {"app.handler", layerApp},
	spShared:        {"core.shared", layerCore},
	spMonitor:       {"core.monitor", layerCore},
	spNewVM:         {"core.newvm_replay", layerCore},
	spListen:        {"djsock.listen", layerDjsock},
	spConnect:       {"djsock.connect", layerDjsock},
	spAccept:        {"djsock.accept", layerDjsock},
	spWrite:         {"djsock.write", layerDjsock},
	spRead:          {"djsock.read", layerDjsock},
	spClose:         {"djsock.close", layerDjsock},
	spCall:          {"djrpc.call", layerDjrpc},
	spServe:         {"djrpc.serve", layerDjrpc},
	spBind:          {"djgram.bind", layerDjgram},
	spSend:          {"djgram.send", layerDjgram},
	spReceive:       {"djgram.receive", layerDjgram},
	spTake:          {"checkpoint.take", layerCheckpoint},
	spLatest:        {"checkpoint.latest", layerCheckpoint},
	spResume:        {"checkpoint.resume_replay", layerCheckpoint},
	spSave:          {"tracelog.save", layerTracelog},
	spLoad:          {"tracelog.load", layerTracelog},
	spIndexSchedule: {"tracelog.index.schedule", layerTracelog},
	spIndexNetwork:  {"tracelog.index.network", layerTracelog},
	spIndexDatagram: {"tracelog.index.datagram", layerTracelog},
	spWALSync:       {"tracelog.wal.sync", layerTracelog},
	spTruncate:      {"tracelog.truncate", layerTracelog},
	spRecover:       {"tracelog.recover", layerTracelog},
}

// hotSample is the mean sampling period of hot spans: calls made millions of
// times per repetition record one span in hotSample on average while their
// counts stay exact. The gap to the next sampled call is drawn uniformly from
// 1 to 2*hotSample-1: with a fixed period the samples would beat against
// whatever the program does periodically (core yields every RecordJitter
// events), and see it every time or never.
const hotSample = 256

// phase is which of the three runs of a repetition's program a thread belongs
// to; a VM's mode can differ from it (a plain client VM is passthrough in the
// record phase).
type phase uint8

const (
	phasePass phase = iota
	phaseRec
	phaseRep
	phaseRecover // kv-durable's crash-point replays
	numPhases
)

var phaseNames = [numPhases]string{"pass", "rec", "rep", "recover"}

type span struct {
	name       spanName
	weight     uint16 // 1, or hotSample for a sampled call of a hot span
	parent     int32  // index in the thread's span list; -1 for the root
	start, end int64  // ns since the tracer's epoch
}

type threadInfo struct {
	rep   int
	phase phase
	mode  phase // the VM's mode: phasePass, phaseRec or phaseRep
	vm    string
	label string
}

type threadTrace struct {
	tr    *tracer
	info  threadInfo
	spans []span
	open  []int32
	calls [numSpans]uint64 // exact call counts of hot spans
	next  [numSpans]uint64 // call count at which a hot span is next sampled
	rng   uint64           // xorshift state for the sampling gaps
}

type tracer struct {
	epoch time.Time
	// clockNs is the duration an empty span reads, subtracted from hot spans:
	// a SharedInt access costs about as much as the clock read that times it.
	clockNs float64

	mu      sync.Mutex
	threads []*threadTrace
}

func newTracer() *tracer {
	tr := &tracer{epoch: time.Now()}
	cal := &threadTrace{tr: tr}
	const rounds = 20000
	var sum int64
	for i := 0; i < rounds; i++ {
		cal.begin(spShared)
		cal.end()
		s := cal.spans[len(cal.spans)-1]
		sum += s.end - s.start
		cal.spans = cal.spans[:0]
	}
	tr.clockNs = float64(sum) / rounds
	return tr
}

// thread starts the trace of one program thread; its root span runs until
// finish. A nil tracer returns a nil threadTrace.
func (tr *tracer) thread(info threadInfo) *threadTrace {
	if tr == nil {
		return nil
	}
	tt := &threadTrace{tr: tr, info: info}
	tt.begin(spThread)
	return tt
}

func (tt *threadTrace) now() int64 { return int64(time.Since(tt.tr.epoch)) }

func (tt *threadTrace) begin(name spanName) {
	if tt == nil {
		return
	}
	parent := int32(-1)
	if n := len(tt.open); n > 0 {
		parent = tt.open[n-1]
	}
	tt.open = append(tt.open, int32(len(tt.spans)))
	tt.spans = append(tt.spans, span{name: name, weight: 1, parent: parent, start: tt.now()})
}

func (tt *threadTrace) end() {
	if tt == nil {
		return
	}
	end := tt.now()
	n := len(tt.open)
	tt.spans[tt.open[n-1]].end = end
	tt.open = tt.open[:n-1]
}

// hot counts one call of a hot span and reports whether this call is one of
// those that are timed; pass the result to hotEnd.
func (tt *threadTrace) hot(name spanName) bool {
	if tt == nil {
		return false
	}
	tt.calls[name]++
	if tt.calls[name] <= tt.next[name] {
		return false
	}
	// The first call of a thread is always sampled, so a thread with few
	// calls still has a duration to stand for them.
	if tt.rng == 0 {
		tt.rng = uint64(tt.now()) | 1
	}
	tt.rng ^= tt.rng << 13
	tt.rng ^= tt.rng >> 7
	tt.rng ^= tt.rng << 17
	tt.next[name] = tt.calls[name] + tt.rng%(2*hotSample-1)
	tt.begin(name)
	tt.spans[len(tt.spans)-1].weight = hotSample
	return true
}

func (tt *threadTrace) hotEnd(sampled bool) {
	if sampled {
		tt.end()
	}
}

// finish closes the root span (and any span a stopped thread left open) and
// hands the thread's spans to the tracer.
func (tt *threadTrace) finish() {
	if tt == nil {
		return
	}
	for len(tt.open) > 0 {
		tt.end()
	}
	tt.tr.mu.Lock()
	tt.tr.threads = append(tt.tr.threads, tt)
	tt.tr.mu.Unlock()
}

// spanKey selects the spans of one name run by VMs in one mode.
type spanKey struct {
	name spanName
	mode phase
}

type spanStat struct {
	count uint64    // exact number of calls
	durNs []float64 // duration of every recorded (for a hot span: sampled) call
}

// medianNs is the typical call: a span is wall time, so a call during which
// the thread was descheduled reads long, and the mean would follow those.
func (s spanStat) medianNs() float64 { return median(s.durNs) }

// traceSummary is what a traced repetition set reduces to.
type traceSummary struct {
	stats map[spanKey]spanStat
	// layerNs is self time per layer and threadNs the summed thread time,
	// both over the threads of recording VMs in the record phase.
	layerNs  [numLayers]float64
	threadNs float64
}

func (tr *tracer) summarize() traceSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sum := traceSummary{stats: map[spanKey]spanStat{}}
	for _, tt := range tr.threads {
		// A sampled hot span stands for the calls its thread made over the calls
		// that were sampled.
		var sampled [numSpans]int
		for _, s := range tt.spans {
			if s.weight > 1 {
				sampled[s.name]++
			}
		}
		for name, n := range sampled {
			if n > 0 {
				k := spanKey{spanName(name), tt.info.mode}
				st := sum.stats[k]
				st.count += tt.calls[name]
				sum.stats[k] = st
			}
		}
		// total is the time a span accounts for: its own duration, scaled up
		// for a sampled hot span. A sampled call during which the thread waited
		// (core yields inside a call; a contended call waits for the counter)
		// carries that wait, so waiting is attributed to where it happened.
		total := make([]float64, len(tt.spans))
		child := make([]float64, len(tt.spans))
		for i, s := range tt.spans {
			d := float64(s.end - s.start)
			k := spanKey{s.name, tt.info.mode}
			st := sum.stats[k]
			if s.weight == 1 {
				total[i] = d
				st.count++
			} else {
				d = max(d-tr.clockNs, 0)
				total[i] = d * float64(tt.calls[s.name]) / float64(sampled[s.name])
			}
			st.durNs = append(st.durNs, d)
			sum.stats[k] = st
			if s.parent >= 0 {
				child[s.parent] += total[i]
			}
		}
		if tt.info.phase != phaseRec || tt.info.mode != phaseRec {
			continue
		}
		// Self time is a span's total less what its children account for. A
		// sampled estimate can exceed the span it sits in, which makes that one
		// self time negative; the sums over all threads are what is used.
		for i, s := range tt.spans {
			sum.layerNs[spanDefs[s.name].layer] += total[i] - child[i]
			if s.parent < 0 {
				sum.threadNs += total[i]
			}
		}
	}
	// The self times add up to the thread time by construction. A layer whose
	// children were overestimated in sum is held at 0 and the others scaled,
	// so the shares still add to 1.
	var positive float64
	for l, ns := range sum.layerNs {
		sum.layerNs[l] = max(ns, 0)
		positive += sum.layerNs[l]
	}
	if positive > 0 {
		for l := range sum.layerNs {
			sum.layerNs[l] *= sum.threadNs / positive
		}
	}
	return sum
}

// writeFile writes every recorded span as JSON. Spans are arrays in the order
// given by "span_fields"; start and end are ns since the first span recorder
// call of the process, parent is an index into the same thread's span list.
func (tr *tracer) writeFile(path, workload string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"hot_sample":%d,"clock_ns":%.1f,"span_fields":["name","parent","start_ns","end_ns","weight"],"names":[`,
		workload, hotSample, tr.clockNs)
	for i, d := range spanDefs {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", d.name)
	}
	w.WriteString(`],"threads":[`)
	var num []byte
	for ti, tt := range tr.threads {
		if ti > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"thread":%d,"repetition":%d,"phase":%q,"vm":%q,"mode":%q,"label":%q,"hot_calls":{`,
			ti, tt.info.rep, phaseNames[tt.info.phase], tt.info.vm, phaseNames[tt.info.mode], tt.info.label)
		first := true
		for name, n := range tt.calls {
			if n == 0 {
				continue
			}
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "%q:%d", spanDefs[name].name, n)
		}
		w.WriteString(`},"spans":[`)
		for si, s := range tt.spans {
			num = num[:0]
			if si > 0 {
				num = append(num, ',')
			}
			num = append(num, '[')
			num = strconv.AppendInt(num, int64(s.name), 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, int64(s.parent), 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.start, 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.end, 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, int64(s.weight), 10)
			num = append(num, ']')
			w.Write(num)
		}
		w.WriteString("]}")
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
