package middleware

import (
	"fmt"
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

// cacheTier is a step's source when the compute node reads the chunk
// from its own caching tier instead of a storage node.
const cacheTier = -1

// attempt is one delivery attempt of a fetch.
type attempt struct {
	slow    float64  // disk slowdown factor (0: the disk reads at full speed)
	dropped bool     // the flaky link loses the delivery
	onsets  []string // details of the fault onsets the attempt marks
}

// cleanFetch is the attempt list of a fetch no fault touches.
var cleanFetch = []attempt{{}}

// step is how a compute node obtains one chunk of a pass under a fault
// plan.
type step struct {
	// from is the storage node the chunk is fetched from (always the
	// chunk's home) or cacheTier.
	from int
	// attempts lists a fetch's delivery attempts: every one but the last
	// is dropped, and a dropped last one aborts the run.
	attempts []attempt
}

// crash is where a compute node dies: the pass (-1: it survives the run)
// and the detail of its failover event.
type crash struct {
	pass     int
	failover string
}

// runPlan is one run's schedule, the single source both executors
// interpret: for every pass and compute node, the chunks the node
// reduces in order (its steps), where each one is read from, and every
// delivery attempt of each fetch. A node's steps in its crash pass are
// wasted work, lost when it dies. The plan is a pure function of the
// layout, the fault plan, n, c and the pass count, built once per run;
// the fault feeds are consumed here and nowhere else. The executors read
// it through work, order, source, attempts and crashPass, not through a
// value per step: building one for every chunk made a fault-free 1-1
// simulation, whose cached passes take no switch, about 1.8x slower.
//
// The ordinal rule: a storage node numbers each pass's live delivery
// attempts in plan order — by step position, then by compute node — and
// a lost delivery's retries take the next ordinals, before the node's
// next delivery. Wasted crash-pass fetches take no ordinal. On a
// fault-free pass 0 this is the order of the layout, the order a
// single-threaded data server serves its clients in.
type runPlan struct {
	// work is per pass, per compute node: the node's chunks in order (in
	// its crash pass, the prefix it completes before dying). Fault-free
	// runs share the base lists across passes.
	work [][][]adr.Chunk
	// steps (parallel to work) and crashes detail work under a fault
	// plan. Both are nil on fault-free runs, where pass 0 fetches every
	// chunk from its home and later passes read the caching tier.
	steps   [][][]step
	crashes []crash // per compute node
	rounds  int     // pass 0's synchronous chunk rounds: its longest list
}

// newRunPlan builds the plan for n storage nodes and the compute nodes of
// base (each one's fault-free chunk list in delivery order). Faults
// addressing nodes the run does not have are dropped, so one plan replays
// across differently sized configurations, and a node's crashes collapse
// to the earliest (pass, chunk). A node crashing in pass p loses its
// partial work for p, so it counts as dead from p on: every pass where a
// node is dead re-deals the dead nodes' base lists onto the survivors
// (reassignDead), and a plan leaving no node alive is an error. A
// crashing node's crash-pass list is its would-be assignment given the
// nodes dead before it; it completes the plan's prefix of that list, and
// the whole list is what its crash re-deals.
func newRunPlan(faults *simgrid.FaultPlan, base [][]adr.Chunk, n, passes int) (runPlan, error) {
	c := len(base)
	pl := runPlan{work: make([][][]adr.Chunk, passes)}
	var cut []int // per compute node: the chunks it completes in its crash pass
	var disk, link []faultFeed
	if faults != nil && !faults.Empty() {
		pl.crashes, cut = make([]crash, c), make([]int, c)
		disk, link = make([]faultFeed, n), make([]faultFeed, n)
		for j := range pl.crashes {
			pl.crashes[j].pass = -1
		}
		faulted := false
		for _, f := range faults.Faults {
			switch {
			case f.Kind == simgrid.FaultCrash && f.Node < c:
				// A crash after the run's last pass never happens.
				cr := &pl.crashes[f.Node]
				earlier := cr.pass == -1 || f.Pass < cr.pass || f.Pass == cr.pass && f.Chunk < cut[f.Node]
				if f.Pass < passes && earlier {
					cr.pass, cut[f.Node] = f.Pass, f.Chunk
				}
			case f.Kind == simgrid.FaultSlowDisk && f.Node < n:
				disk[f.Node].faults = append(disk[f.Node].faults, f)
			case f.Kind == simgrid.FaultFlakyLink && f.Node < n:
				link[f.Node].faults = append(link[f.Node].faults, f)
			default:
				continue // a node the run does not have
			}
			faulted = true
		}
		if !faulted {
			pl.crashes = nil
		}
	}
	alive := make([]bool, len(pl.crashes))
	for pass := range pl.work {
		pl.work[pass] = base
		dead := false
		for j, cr := range pl.crashes {
			alive[j] = cr.pass == -1 || cr.pass > pass
			dead = dead || !alive[j]
		}
		if dead {
			work, err := reassignDead(base, alive)
			if err != nil {
				return runPlan{}, fmt.Errorf("middleware: pass %d: %w", pass, err)
			}
			pl.work[pass] = work
		}
	}
	for j, cr := range pl.crashes {
		if cr.pass == -1 {
			continue
		}
		wouldBe := base[j]
		if cr.pass > 0 {
			wouldBe = pl.work[cr.pass-1][j]
		}
		// work[cr.pass] is the crash pass's own re-deal, so it is not shared.
		pl.work[cr.pass][j] = wouldBe[:min(cut[j], len(wouldBe))]
		survivors := 0
		for _, o := range pl.crashes {
			if o.pass == -1 || o.pass > cr.pass {
				survivors++
			}
		}
		pl.crashes[j].failover = fmt.Sprintf("node %d down, %d chunks re-dealt to %d survivors",
			j, len(wouldBe), survivors)
	}
	if pl.crashes != nil {
		pl.planSteps(disk, link)
	}
	for _, w := range pl.work[0] {
		pl.rounds = max(pl.rounds, len(w))
	}
	return pl, nil
}

// planSteps details every pass's work for the storage nodes of the fault
// feeds: a chunk is read from the caching tier when the node reduced it
// live in an earlier pass and fetched from its home otherwise, and each
// live fetch gets its delivery attempts by the ordinal rule.
func (pl *runPlan) planSteps(disk, link []faultFeed) {
	n := len(disk)
	cached := make([]map[int]bool, len(pl.crashes))
	for j := range cached {
		cached[j] = make(map[int]bool)
	}
	pl.steps = make([][][]step, len(pl.work))
	for pass, rows := range pl.work {
		steps := make([][]step, len(rows))
		for j, chunks := range rows {
			steps[j] = make([]step, len(chunks))
			for k, ch := range chunks {
				steps[j][k] = step{ch.Home, cleanFetch}
				if cached[j][ch.Index] {
					steps[j][k] = step{cacheTier, nil}
				}
				if pl.crashes[j].pass != pass {
					cached[j][ch.Index] = true // reduced live, so cached from the next pass on
				}
			}
		}
		pl.steps[pass] = steps
		ord := make([]int, n)
		pl.order(pass, func(j, k int) error {
			s := &steps[j][k]
			if s.from == cacheTier || pl.crashes[j].pass == pass {
				return nil
			}
			dn := s.from
			s.attempts = nil
			for {
				var a attempt
				if f, fresh, hit := disk[dn].next(pass, ord[dn]); hit {
					a.slow = f.Factor
					if fresh {
						a.onsets = append(a.onsets, fmt.Sprintf("slow-disk x%.3g on storage node %d", f.Factor, dn))
					}
				}
				_, fresh, hit := link[dn].next(pass, ord[dn])
				if a.dropped = hit; fresh {
					a.onsets = append(a.onsets, fmt.Sprintf("flaky-link on storage node %d", dn))
				}
				ord[dn]++
				s.attempts = append(s.attempts, a)
				if !a.dropped || len(s.attempts) > maxRetries {
					return nil
				}
			}
		})
	}
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

// source returns where compute node j reads ch, its k-th chunk of pass:
// ch.Home or cacheTier.
func (pl *runPlan) source(pass, j, k int, ch adr.Chunk) int {
	if pl.steps != nil {
		return pl.steps[pass][j][k].from
	}
	if pass == 0 {
		return ch.Home
	}
	return cacheTier
}

// attempts returns the delivery attempts of compute node j's k-th chunk
// of pass, a fetch.
func (pl *runPlan) attempts(pass, j, k int) []attempt {
	if pl.steps != nil {
		return pl.steps[pass][j][k].attempts
	}
	return cleanFetch
}

// crashPass returns the pass in which compute node j dies, or -1.
func (pl *runPlan) crashPass(j int) int {
	if pl.crashes == nil {
		return -1
	}
	return pl.crashes[j].pass
}

// order calls fn for every step of pass in plan order, by step position
// and then by compute node, and stops at fn's first error.
func (pl *runPlan) order(pass int, fn func(j, k int) error) error {
	rows := pl.work[pass]
	for k, more := 0, true; more; k++ {
		more = false
		for j, chunks := range rows {
			if k >= len(chunks) {
				continue
			}
			more = true
			if err := fn(j, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// retryDetail is the detail of the retry event after the given attempt
// (1-based) to fetch ch from storage node dn was lost.
func retryDetail(ch adr.Chunk, dn, attempt int) string {
	return fmt.Sprintf("chunk %d from storage node %d, attempt %d", ch.Index, dn, attempt)
}

// deliveryFailed is the error of a fetch of ch from storage node dn for
// compute node j whose every attempt was lost.
func deliveryFailed(ch adr.Chunk, dn, j, attempts int) error {
	return fmt.Errorf("middleware: delivery of chunk %d from storage node %d to node %d failed after %d attempts",
		ch.Index, dn, j, attempts)
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}
