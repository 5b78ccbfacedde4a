package middleware

import (
	"sort"
	"sync"
	"time"

	"freerideg/internal/simgrid"
)

// The middleware's failure handling: a chunk delivery that fails
// maxRetries+1 times aborts the run, the delay before a retry starts at
// retryBackoff and doubles with every further attempt, and the master
// declares a silent compute node dead (re-dealing its chunks to the
// survivors) detectTimeout after it goes silent.
const (
	maxRetries    = 5
	retryBackoff  = 40 * time.Millisecond
	detectTimeout = 250 * time.Millisecond
)

// faultSchedule indexes a FaultPlan by target node for consultation
// during execution. Faults addressing nodes the run does not have are
// dropped, so one plan replays across differently sized configurations.
// A nil *faultSchedule (no plan, or nothing applicable) is valid and
// means fault-free; all methods are nil-safe.
type faultSchedule struct {
	c          int
	crashPass  []int // per compute node; -1 = never crashes
	crashChunk []int
	disk       [][]simgrid.Fault // per storage node, in plan order
	link       [][]simgrid.Fault
}

// newFaultSchedule builds the per-node index for n storage and c compute
// nodes. Multiple crashes of one node collapse to the earliest
// (pass, chunk) point.
func newFaultSchedule(plan *simgrid.FaultPlan, n, c int) *faultSchedule {
	if plan == nil || plan.Empty() {
		return nil
	}
	s := &faultSchedule{
		c:          c,
		crashPass:  make([]int, c),
		crashChunk: make([]int, c),
		disk:       make([][]simgrid.Fault, n),
		link:       make([][]simgrid.Fault, n),
	}
	for j := range s.crashPass {
		s.crashPass[j] = -1
	}
	any := false
	for _, f := range plan.Faults {
		switch f.Kind {
		case simgrid.FaultCrash:
			if f.Node >= c {
				continue
			}
			j := f.Node
			if s.crashPass[j] == -1 || f.Pass < s.crashPass[j] ||
				(f.Pass == s.crashPass[j] && f.Chunk < s.crashChunk[j]) {
				s.crashPass[j], s.crashChunk[j] = f.Pass, f.Chunk
			}
			any = true
		case simgrid.FaultSlowDisk:
			if f.Node < n {
				s.disk[f.Node] = append(s.disk[f.Node], f)
				any = true
			}
		case simgrid.FaultFlakyLink:
			if f.Node < n {
				s.link[f.Node] = append(s.link[f.Node], f)
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	return s
}

// crashPoint reports where compute node j dies: the pass and the number
// of chunks it completes within that pass before going silent.
func (s *faultSchedule) crashPoint(j int) (pass, chunk int, ok bool) {
	if s == nil || j >= len(s.crashPass) || s.crashPass[j] == -1 {
		return 0, 0, false
	}
	return s.crashPass[j], s.crashChunk[j], true
}

// aliveAt reports which compute nodes contribute to the given pass. A
// node crashing in pass p loses its partial work for p, so it already
// counts as dead for its crash pass. Returns nil for a nil schedule
// (everyone alive).
func (s *faultSchedule) aliveAt(pass int) []bool {
	if s == nil {
		return nil
	}
	alive := make([]bool, s.c)
	for j := range alive {
		alive[j] = s.crashPass[j] == -1 || s.crashPass[j] > pass
	}
	return alive
}

// faultFeed consumes one storage node's scheduled faults (of one kind)
// in plan order as the run plan's delivery attempts flow past. A fault
// activates when the attempt's (pass, ordinal) reaches its (Pass, Chunk)
// trigger and then applies to the next Count attempts (Count = 0: every
// remaining attempt). Feeds are stateful and belong to one plan build.
type faultFeed struct {
	faults []simgrid.Fault
	cur    int
	left   int
	active bool
}

// next consults the feed for the attempt at (pass, ordinal): it returns
// the governing fault, whether this is the fault's first application
// (for onset events), and whether any fault applies. Counted faults
// consume one unit per applying attempt.
func (ff *faultFeed) next(pass, ordinal int) (f simgrid.Fault, fresh, hit bool) {
	if ff.cur >= len(ff.faults) {
		return simgrid.Fault{}, false, false
	}
	f = ff.faults[ff.cur]
	if !ff.active {
		if pass < f.Pass || (pass == f.Pass && ordinal < f.Chunk) {
			return simgrid.Fault{}, false, false
		}
		ff.active = true
		ff.left = f.Count
		fresh = true
	}
	if f.Count == 0 { // unbounded: degrades every remaining attempt
		return f, fresh, true
	}
	ff.left--
	if ff.left <= 0 {
		ff.cur++
		ff.active = false
	}
	return f, fresh, true
}

// incidentLog buffers fault/retry/failover events raised concurrently by
// the goroutine backend's workers, so they can be flushed in a
// deterministic order at the end of the stage that raised them (the
// simulated backend emits directly — the event engine already serializes
// its processes). Durations are preserved; the flush timestamp is the
// stage's completion time.
type incidentLog struct {
	mu     sync.Mutex
	events []Event
}

// add buffers one incident. Safe for concurrent use.
func (l *incidentLog) add(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// drain emits the buffered incidents to sink (if non-nil) sorted by
// (pass, phase, node, detail), stamped with the given timestamp, and
// returns the recovery time and retry count they carry.
func (l *incidentLog) drain(sink Sink, at time.Duration) (recovery time.Duration, retries int) {
	l.mu.Lock()
	evs := l.events
	l.events = nil
	l.mu.Unlock()
	sort.SliceStable(evs, func(i, k int) bool {
		a, b := evs[i], evs[k]
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Detail < b.Detail
	})
	for _, ev := range evs {
		ev.At = at
		switch ev.Phase {
		case PhaseRetry:
			retries++
			recovery += ev.Dur
		case PhaseFailover:
			recovery += ev.Dur
			mwFailovers.Inc()
		}
		if sink != nil {
			sink.Emit(ev)
		}
	}
	return recovery, retries
}
