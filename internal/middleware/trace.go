package middleware

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"freerideg/internal/core"
)

// Phase identifies one step of the canonical FREERIDE-G protocol. Every
// backend executes the same phase sequence through the shared Pipeline,
// and every emitted Event carries the phase it belongs to.
//
// Phases map onto the paper's component vocabulary as follows:
//
//	t_d (data retrieval):      PhaseRetrieval + PhaseCachedFetch
//	t_n (data communication):  PhaseDelivery
//	t_c (data processing):     PhaseLocalReduce + PhaseGather +
//	                           PhaseGlobalReduce + PhaseSync + PhaseBroadcast
type Phase int

const (
	// PhaseRunStart opens a run (pass = -1).
	PhaseRunStart Phase = iota
	// PhaseRetrieval is first-pass chunk retrieval at the storage nodes.
	PhaseRetrieval
	// PhaseDelivery is first-pass chunk transfer to the compute nodes.
	PhaseDelivery
	// PhaseCachedFetch is chunk re-retrieval from the caching tier in
	// passes after the first (absent with in-memory caching).
	PhaseCachedFetch
	// PhaseLocalReduce is per-node local reduction over delivered chunks.
	PhaseLocalReduce
	// PhaseGather is the serialized reduction-object gather at the master.
	PhaseGather
	// PhaseGlobalReduce is the master's global reduction.
	PhaseGlobalReduce
	// PhaseSync is the master's per-pass coordination overhead.
	PhaseSync
	// PhaseBroadcast is the master-to-workers result re-broadcast.
	PhaseBroadcast
	// PhaseFault marks an injected fault taking effect (a node crash or
	// the onset of a disk/link degradation). Fault events carry zero Dur —
	// the cost of riding the fault out shows up as retry and failover
	// events.
	PhaseFault
	// PhaseRetry is one failed chunk-delivery attempt: the wasted
	// retrieval and transfer plus the exponential-backoff delay before the
	// re-request.
	PhaseRetry
	// PhaseFailover is the recovery from one compute-node crash: the
	// crashed node's discarded partial work plus the master's detection
	// timeout, after which the node's chunks are re-partitioned onto the
	// survivors.
	PhaseFailover
	// PhaseRunEnd closes a run (pass = -1).
	PhaseRunEnd
)

var phaseNames = [...]string{
	PhaseRunStart:     "run-start",
	PhaseRetrieval:    "retrieval",
	PhaseDelivery:     "delivery",
	PhaseCachedFetch:  "cached-fetch",
	PhaseLocalReduce:  "local-reduce",
	PhaseGlobalReduce: "global-reduce",
	PhaseGather:       "gather",
	PhaseSync:         "sync",
	PhaseBroadcast:    "broadcast",
	PhaseFault:        "fault",
	PhaseRetry:        "retry",
	PhaseFailover:     "failover",
	PhaseRunEnd:       "run-end",
}

func (ph Phase) String() string {
	if ph >= 0 && int(ph) < len(phaseNames) {
		return phaseNames[ph]
	}
	return fmt.Sprintf("Phase(%d)", int(ph))
}

// MarshalJSON renders the phase by name, keeping JSON-lines traces
// self-describing.
func (ph Phase) MarshalJSON() ([]byte, error) { return json.Marshal(ph.String()) }

// UnmarshalJSON accepts a phase name.
func (ph *Phase) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range phaseNames {
		if name == s {
			*ph = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("middleware: unknown phase %q", s)
}

// Event is one structured middleware execution event. Timestamps are
// relative to the run's start: virtual time on the simulated backend,
// wall time on the goroutine backend.
type Event struct {
	// At is when the phase completed (run-start: when the run began).
	At time.Duration `json:"at"`
	// Pass is the pass number, or -1 for run-level events.
	Pass int `json:"pass"`
	// Phase is the protocol step this event reports.
	Phase Phase `json:"phase"`
	// Node is the node the phase is attributed to (-1 = master/run-wide).
	Node int `json:"node"`
	// Dur is the accounted duration of the phase (zero for run-level
	// events). Per-node phases carry the maximum over nodes, matching the
	// paper's component accounting, so summing Dur per component
	// reproduces the run's (t_d, t_n, t_c) breakdown exactly.
	Dur time.Duration `json:"dur"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Sink receives middleware events. Emit is always called from the single
// pipeline-driving flow of a run, in event order; a Sink shared across
// concurrent runs must serialize internally (Collector does).
type Sink interface {
	Emit(Event)
}

// TextSink renders events as aligned, human-readable lines.
type TextSink struct {
	w io.Writer
}

// NewTextSink returns a sink writing one text line per event to w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Emit writes the event as one line.
func (s *TextSink) Emit(ev Event) {
	switch ev.Phase {
	case PhaseRunStart, PhaseRunEnd:
		fmt.Fprintf(s.w, "t=%-14v %-13s %s\n", ev.At, ev.Phase, ev.Detail)
	default:
		line := fmt.Sprintf("t=%-14v %-13s pass=%d", ev.At, ev.Phase, ev.Pass)
		if ev.Node >= 0 {
			line += fmt.Sprintf(" node=%d", ev.Node)
		}
		line += fmt.Sprintf(" dur=%v", ev.Dur)
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		fmt.Fprintln(s.w, line)
	}
}

// JSONSink renders events as JSON lines (one object per line), the
// machine-readable execution log a deployment would ship to its
// observability stack. Durations are nanoseconds; phases are names.
type JSONSink struct {
	enc *json.Encoder
}

// NewJSONSink returns a sink writing one JSON object per event to w.
func NewJSONSink(w io.Writer) *JSONSink { return &JSONSink{enc: json.NewEncoder(w)} }

// Emit writes the event as one JSON line. Encoding errors are dropped:
// tracing must never fail a run.
func (s *JSONSink) Emit(ev Event) { _ = s.enc.Encode(ev) }

// Collector is an in-memory sink that records events and aggregates
// accounted durations per phase. It is safe for use across runs.
type Collector struct {
	mu     sync.Mutex
	events []Event
	totals map[Phase]time.Duration
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{totals: make(map[Phase]time.Duration)}
}

// Emit records the event.
func (c *Collector) Emit(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	c.totals[ev.Phase] += ev.Dur
}

// Events returns a copy of the recorded events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// PhaseTotal reports the summed accounted duration of one phase.
func (c *Collector) PhaseTotal(ph Phase) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[ph]
}

// Breakdown folds the per-phase sums into the paper's three components
// through PhaseBreakdown's mapping. For any single traced run this equals
// the returned Profile's breakdown (the t_d + t_n + t_c additivity of
// Section 6).
func (c *Collector) Breakdown() core.Breakdown {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PhaseBreakdown{
		Retrieval:   c.totals[PhaseRetrieval],
		Delivery:    c.totals[PhaseDelivery],
		CachedFetch: c.totals[PhaseCachedFetch],
		Compute:     c.totals[PhaseLocalReduce],
		Gather:      c.totals[PhaseGather],
		Global:      c.totals[PhaseGlobalReduce],
		Sync:        c.totals[PhaseSync],
		Broadcast:   c.totals[PhaseBroadcast],
	}.Breakdown()
}
