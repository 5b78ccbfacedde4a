package middleware

import (
	"fmt"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/simgrid"
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
// base (each one's fault-free chunk list in delivery order). A crashing
// node's crash-pass list is its would-be assignment given the nodes dead
// before it; it completes the plan's prefix of that list, and the whole
// list is what its crash re-deals.
func newRunPlan(faults *simgrid.FaultPlan, base [][]adr.Chunk, n, passes int) (runPlan, error) {
	c := len(base)
	sched := newFaultSchedule(faults, n, c)
	work, err := passAssignments(base, sched, passes)
	if err != nil {
		return runPlan{}, err
	}
	pl := runPlan{work: work}
	if sched != nil {
		pl.crashes = make([]crash, c)
		for j := range pl.crashes {
			cp, ck, ok := sched.crashPoint(j)
			if !ok || cp >= passes {
				pl.crashes[j].pass = -1
				continue
			}
			wouldBe := base[j]
			if cp > 0 {
				wouldBe = work[cp-1][j]
			}
			// work[cp] is the crash pass's own re-deal, so it is not shared.
			work[cp][j] = wouldBe[:min(ck, len(wouldBe))]
			survivors := 0
			for _, a := range sched.aliveAt(cp) {
				if a {
					survivors++
				}
			}
			pl.crashes[j] = crash{cp, fmt.Sprintf("node %d down, %d chunks re-dealt to %d survivors",
				j, len(wouldBe), survivors)}
		}
		pl.planSteps(sched, n)
	}
	for _, w := range work[0] {
		pl.rounds = max(pl.rounds, len(w))
	}
	return pl, nil
}

// planSteps details every pass's work for the n storage nodes: a chunk
// is read from the caching tier when the node reduced it live in an
// earlier pass and fetched from its home otherwise, and each live fetch
// gets its delivery attempts by the ordinal rule.
func (pl *runPlan) planSteps(sched *faultSchedule, n int) {
	disk, link := make([]faultFeed, n), make([]faultFeed, n)
	for i := range disk {
		disk[i].faults, link[i].faults = sched.disk[i], sched.link[i]
	}
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
