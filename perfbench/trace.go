package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names: one per layer call the benchmark times from outside. The
// root spans (plan.deployment, sim.iteration, serve.datagram,
// serve.control) group the layer calls of one deployment, run pair,
// datagram or control step under a shared id.
const (
	spPlanDeployment uint8 = iota
	spAlloc
	spModel
	spSim
	spSimIteration
	spConfirmed
	spDatagram
	spDecode
	spObserve
	spPayload
	spDownlinkObserve
	spDispatch
	spFlush
	spTracker
	spControl
	spRealloc
	spAppendSync
	spEnqueue
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spPlanDeployment:  "plan.deployment",
	spAlloc:           "alloc.AllocateWithReport",
	spModel:           "model.score",
	spSim:             "sim.Run",
	spSimIteration:    "sim.iteration",
	spConfirmed:       "sim.RunConfirmed",
	spDatagram:        "serve.datagram",
	spDecode:          "ingest.DecodePacketInto",
	spObserve:         "ingest.Frontend.Observe",
	spPayload:         "ingest.RXPK.Payload",
	spDownlinkObserve: "downlink.Scheduler.ObserveUplink",
	spDispatch:        "ingest.Pool.Dispatch",
	spFlush:           "ingest.Pool.FlushExpiredVirtual",
	spTracker:         "ingest.Tracker.Observe",
	spControl:         "serve.control",
	spRealloc:         "ingest.Reallocator.Step",
	spAppendSync:      "statestore.Store.AppendSync",
	spEnqueue:         "downlink.encode+Enqueue",
}

// span is one timed layer call. Times are nanoseconds since the trace
// epoch; parent indexes the enclosing span in the same recorder (-1 for
// a root).
type span struct {
	start, end int64
	id         uint32
	parent     int32
	name       uint8
}

// trace is one traced pass: a recorder per goroutine that records spans,
// all sharing one epoch. A nil *trace and a nil *recorder record
// nothing, so untraced passes pay one nil check per call site.
type trace struct {
	epoch time.Time
	recs  []*recorder
}

func newTrace() *trace { return &trace{epoch: time.Now()} }

// recorder returns a new span recorder owned by one goroutine, with
// room for capHint spans so that growing it does not stall the pass.
// write keeps the spans whose id is a multiple of writeEvery (all when
// it is 1); metrics always use every span.
func (t *trace) recorder(label string, capHint int, writeEvery uint32) *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{epoch: t.epoch, label: label, writeEvery: writeEvery, spans: make([]span, 0, capHint)}
	t.recs = append(t.recs, r)
	return r
}

// recorder holds the spans of one goroutine; it is not safe for
// concurrent use.
type recorder struct {
	epoch      time.Time
	label      string
	writeEvery uint32
	spans      []span
}

func (r *recorder) begin(name uint8, id uint32, parent int32) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{start: int64(time.Since(r.epoch)), id: id, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// spanStats is the total duration and count of one span name.
type spanStats struct {
	ns    int64
	count int
}

// totals sums every recorder's spans by name.
func (t *trace) totals() [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	if t == nil {
		return out
	}
	for _, r := range t.recs {
		for _, s := range r.spans {
			out[s.name].ns += s.end - s.start
			out[s.name].count++
		}
	}
	return out
}

// spanCount is the number of spans recorded.
func (t *trace) spanCount() int {
	n := 0
	if t != nil {
		for _, r := range t.recs {
			n += len(r.spans)
		}
	}
	return n
}

// write stores the spans as CSV (recorder, name, id, parent, start_ns,
// end_ns), one line per span, sampled per recorder by id.
func (t *trace) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder,name,id,parent,start_ns,end_ns")
	for _, r := range t.recs {
		for _, s := range r.spans {
			if s.id%r.writeEvery == 0 {
				fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n", r.label, spanNames[s.name], s.id, s.parent, s.start, s.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
