package middleware

import (
	"sort"
	"sync"
	"time"

	"freerideg/internal/adr"
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

// survivorsAt counts the compute nodes contributing to the given pass
// (0 for a nil schedule; only consulted when faults are active).
func (s *faultSchedule) survivorsAt(pass int) int {
	if s == nil {
		return 0
	}
	count := 0
	for _, a := range s.aliveAt(pass) {
		if a {
			count++
		}
	}
	return count
}

// faultFeed consumes one node's scheduled faults (of one kind) in plan
// order as delivery attempts flow past. A fault activates when the
// attempt's (pass, ordinal) reaches its (Pass, Chunk) trigger and then
// applies to the next Count attempts (Count = 0: every remaining
// attempt). Feeds are stateful and belong to exactly one run.
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
	if ff == nil || ff.cur >= len(ff.faults) {
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

// feedSet holds one feed per storage node (nil where the node has no
// faults of the feed's kind).
type feedSet []*faultFeed

// newFeedSet builds consumable feeds from a schedule's per-node lists.
func newFeedSet(faults [][]simgrid.Fault) feedSet {
	out := make(feedSet, len(faults))
	for i, fs := range faults {
		if len(fs) > 0 {
			out[i] = &faultFeed{faults: fs}
		}
	}
	return out
}

// next consults node i's feed; nil-safe on every level.
func (fs feedSet) next(i, pass, ordinal int) (simgrid.Fault, bool, bool) {
	if i >= len(fs) {
		return simgrid.Fault{}, false, false
	}
	return fs[i].next(pass, ordinal)
}

// faultState is one run's failover layout, shared by both executors. The
// layout is a pure function of the plan and the configuration, which is
// what makes fault runs deterministic and lets every backend replay the
// same plan onto the same layout; only the feeds are consumed as the
// run's deliveries flow past. Apart from assign it is nil/empty on
// fault-free runs.
type faultState struct {
	sched     *faultSchedule
	assign    [][][]adr.Chunk // per pass, per compute node (base lists when fault-free)
	wasted    [][]adr.Chunk   // per compute node: the prefix of its crash pass it completes
	lost      []int           // per compute node: chunks re-dealt at its crash
	diskFeeds feedSet
	linkFeeds feedSet
}

// newFaultState indexes plan for n storage nodes and the compute nodes of
// base (each one's fault-free chunk list), precomputes every pass's
// failover assignment, and derives each crashing node's would-be list
// for its crash pass: the assignment given the nodes already dead before
// it. That list's length is what the crash re-deals, and the prefix the
// node completes before dying is its discarded work.
func newFaultState(plan *simgrid.FaultPlan, base [][]adr.Chunk, n, passes int) (faultState, error) {
	c := len(base)
	fs := faultState{sched: newFaultSchedule(plan, n, c)}
	assign, err := passAssignments(base, fs.sched, passes)
	if err != nil {
		return faultState{}, err
	}
	fs.assign = assign
	if fs.sched == nil {
		return fs, nil
	}
	fs.diskFeeds = newFeedSet(fs.sched.disk)
	fs.linkFeeds = newFeedSet(fs.sched.link)
	fs.wasted = make([][]adr.Chunk, c)
	fs.lost = make([]int, c)
	for j := 0; j < c; j++ {
		cp, ck, ok := fs.sched.crashPoint(j)
		if !ok || cp >= passes {
			continue
		}
		wouldBe := base[j]
		if cp > 0 {
			wouldBe = assign[cp-1][j]
		}
		fs.wasted[j] = wouldBe[:min(ck, len(wouldBe))]
		fs.lost[j] = len(wouldBe)
	}
	return fs, nil
}

// workFor is compute node j's chunk list for a pass under the failover
// assignment (empty from the node's crash pass on).
func (fs *faultState) workFor(pass, j int) []adr.Chunk { return fs.assign[pass][j] }

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
