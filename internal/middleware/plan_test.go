package middleware

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// incident is the backend-independent identity of one fault, retry or
// failover event: everything but its timing.
type incident struct {
	Pass   int
	Phase  Phase
	Node   int
	Detail string
}

// incidents lists a trace's fault, retry and failover events in a
// canonical order.
func incidents(col *Collector) []incident {
	var out []incident
	for _, ev := range col.Events() {
		switch ev.Phase {
		case PhaseFault, PhaseRetry, PhaseFailover:
			out = append(out, incident{ev.Pass, ev.Phase, ev.Node, ev.Detail})
		}
	}
	sort.Slice(out, func(a, b int) bool { return fmt.Sprint(out[a]) < fmt.Sprint(out[b]) })
	return out
}

// protoStep is one protocol event of a trace, without its timing.
type protoStep struct {
	Pass  int
	Phase Phase
	Node  int
}

// skeleton lists a trace's protocol events in emission order, without
// the incidents and without the sync phase, which only the simulator
// charges.
func skeleton(col *Collector) []protoStep {
	var out []protoStep
	for _, ev := range col.Events() {
		switch ev.Phase {
		case PhaseSync, PhaseFault, PhaseRetry, PhaseFailover:
		default:
			out = append(out, protoStep{ev.Pass, ev.Phase, ev.Node})
		}
	}
	return out
}

// Structure comes for free: both backends run one pipeline over one run
// plan, so at every node shape of the goroutine backend and under
// generated fault plans they emit the same phase skeleton, failover
// re-fetch passes included, and the same incidents.
func TestBackendsShareSkeletonAndIncidents(t *testing.T) {
	spec := localSpec("points")
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	refetches := 0 // runs with a failover re-fetch pass
	for _, shape := range localShapes {
		t.Run(shape.String(), func(t *testing.T) {
			for _, seed := range []int64{3, 7, 11} {
				plan := simgrid.GenerateFaultPlan(seed, shape.data, shape.compute, cost.Iterations)
				simCol, localCol := NewCollector(), NewCollector()
				_, simErr := testGrid(t).SimulateOpts(cost, spec, config(shape.data, shape.compute, spec.TotalBytes),
					SimOptions{Faults: &plan, Trace: simCol})
				opts := shape.opts()
				opts.Faults, opts.Trace = &plan, localCol
				_, localErr := RunLocalOpts(kmeansKernel(t, spec), spec, shape.data, shape.compute, opts)
				if simErr != nil || localErr != nil {
					t.Fatalf("seed %d (%v): sim err %v, local err %v", seed, plan, simErr, localErr)
				}
				s, l := skeleton(simCol), skeleton(localCol)
				if !reflect.DeepEqual(s, l) {
					t.Errorf("seed %d (%v): phase skeletons differ\nsim:   %v\nlocal: %v", seed, plan, s, l)
				}
				for _, st := range s {
					if st.Pass > 0 && st.Phase == PhaseDelivery {
						refetches++
						break
					}
				}
				if si, li := incidents(simCol), incidents(localCol); !reflect.DeepEqual(si, li) {
					t.Errorf("seed %d (%v): incidents differ\nsim:   %v\nlocal: %v", seed, plan, si, li)
				}
			}
		})
	}
	if refetches == 0 {
		t.Error("no run re-fetched a chunk after a failover")
	}
}

// One fault plan means the same thing on both backends: both interpret
// the same run plan, so they spend a storage node's fault ordinals alike.
// At 1-2 a flaky link dropping six deliveries takes all six from chunk 0,
// the first delivery in plan order, and aborts both runs. At 2-4 the
// failover re-fetches of a pass-1 crash meet a pass-1 flaky link on both,
// with the same retries, failovers and incidents.
func TestBackendsSpendFaultOrdinalsAlike(t *testing.T) {
	spec := kmeans8MB()
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, c    int
		plan    string
		wantErr string
	}{
		{1, 2, "flaky-link node=0 count=6",
			"delivery of chunk 0 from storage node 0 to node 0 failed after 6 attempts"},
		{2, 4, "crash node=1 pass=1 chunk=2; flaky-link node=1 pass=1 count=2", ""},
	} {
		plan, err := simgrid.ParseFaultPlan(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		simCol, localCol := NewCollector(), NewCollector()
		sim, simErr := testGrid(t).SimulateOpts(cost, spec, config(tc.n, tc.c, spec.TotalBytes),
			SimOptions{Faults: &plan, Trace: simCol})
		local, localErr := RunLocalOpts(kmeansKernel(t, spec), spec, tc.n, tc.c,
			LocalOptions{Faults: &plan, Trace: localCol})
		if tc.wantErr != "" {
			for name, err := range map[string]error{"sim": simErr, "local": localErr} {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%d-%d %q on %s: err %v, want %q", tc.n, tc.c, tc.plan, name, err, tc.wantErr)
				}
			}
			continue
		}
		if simErr != nil || localErr != nil {
			t.Fatalf("%d-%d %q: sim err %v, local err %v", tc.n, tc.c, tc.plan, simErr, localErr)
		}
		if sim.Retries != local.Retries || sim.Retries == 0 {
			t.Errorf("%d-%d %q: %d retries on sim, %d on local; want the same, above 0",
				tc.n, tc.c, tc.plan, sim.Retries, local.Retries)
		}
		simInc, localInc := incidents(simCol), incidents(localCol)
		if !reflect.DeepEqual(simInc, localInc) {
			t.Errorf("%d-%d %q: incidents differ\nsim:   %v\nlocal: %v", tc.n, tc.c, tc.plan, simInc, localInc)
		}
		failovers := func(inc []incident) (k int) {
			for _, i := range inc {
				if i.Phase == PhaseFailover {
					k++
				}
			}
			return k
		}
		if f := failovers(simInc); f != 1 || failovers(localInc) != f {
			t.Errorf("%d-%d %q: %d failovers on sim, %d on local; want 1 each",
				tc.n, tc.c, tc.plan, f, failovers(localInc))
		}
	}
}

// FuzzPlanBooks checks the run plan and the simulated run's books under
// generated fault plans. The plan must reduce every chunk exactly once
// per pass among its live steps, fetch only from a chunk's home, read
// the caching tier only for chunks the node reduced live in an earlier
// pass, and never exhaust a fetch's retries (GenerateFaultPlan promises
// plans the retry budget recovers from; the corpus keeps seed 114 at 2-4,
// whose two flaky links on one storage node once chained into one
// delivery). On the simulated run each node's booked processing time per
// pass must be the sum over its live steps, and each storage node's
// booked t_d + t_n over the run at most its data server's busy time.
func FuzzPlanBooks(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(1), uint8(2)) // 2-4
	}
	spec := pointsSpec(2 * units.MB)
	spec.ChunkBytes = 64 * units.KB
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, nn, cc uint8) {
		n := 1 + int(nn)%3
		c := n + int(cc)%5
		faults := simgrid.GenerateFaultPlan(seed, n, c, cost.Iterations)
		layout, err := adr.Partition(spec, n, adr.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := newRunPlan(&faults, chunksByCompute(layout, n, c), n, cost.Iterations)
		if err != nil {
			t.Fatalf("%v: %v", faults, err)
		}
		reduced := make([]map[int]bool, c) // per node: chunks reduced live so far
		for j := range reduced {
			reduced[j] = make(map[int]bool)
		}
		for pass := range pl.work {
			live := make(map[int]int)
			for j, chunks := range pl.work[pass] {
				wasted := pl.crashPass(j) == pass
				for k, ch := range chunks {
					from, attempts := pl.source(pass, j, k, ch), pl.attempts(pass, j, k)
					switch {
					case from == cacheTier && (pass == 0 || !reduced[j][ch.Index]):
						t.Fatalf("%v: pass %d node %d reads chunk %d from a cache that lacks it", faults, pass, j, ch.Index)
					case from != cacheTier && from != ch.Home:
						t.Fatalf("%v: pass %d node %d fetches chunk %d from storage node %d, its home is %d",
							faults, pass, j, ch.Index, from, ch.Home)
					case from != cacheTier && len(attempts) == 0:
						t.Fatalf("%v: pass %d node %d fetches chunk %d in no attempt", faults, pass, j, ch.Index)
					}
					if len(attempts) > maxRetries && attempts[maxRetries].dropped {
						t.Fatalf("%v: pass %d node %d exhausts its retries fetching chunk %d", faults, pass, j, ch.Index)
					}
					if !wasted {
						live[ch.Index]++
					}
				}
			}
			for _, ch := range layout.Chunks() {
				if live[ch.Index] != 1 {
					t.Fatalf("%v: pass %d reduces chunk %d %d times among live steps", faults, pass, ch.Index, live[ch.Index])
				}
			}
			for j, chunks := range pl.work[pass] {
				for _, ch := range chunks {
					if pl.crashPass(j) != pass {
						reduced[j][ch.Index] = true
					}
				}
			}
		}

		_, ex, err := testGrid(t).simulateOpts(cost, spec, config(n, c, spec.TotalBytes), SimOptions{Faults: &faults})
		if err != nil {
			t.Fatalf("%v: %v", faults, err)
		}
		for pass, book := range ex.books {
			for j, nb := range book.nodes {
				var comp time.Duration
				for _, ch := range ex.work[pass][j] {
					if ex.crashPass(j) != pass {
						comp += ex.procTime(ch)
					}
				}
				if nb.comp != comp {
					t.Errorf("%v: pass %d node %d booked comp %v, its live steps take %v", faults, pass, j, nb.comp, comp)
				}
			}
		}
		for dn, srv := range ex.servers {
			var booked time.Duration
			for _, b := range ex.books {
				booked += b.servers[dn].disk + b.servers[dn].net
			}
			if busy := srv.BusyTime(); booked > busy {
				t.Errorf("%v: storage node %d booked %v, its data server was busy %v", faults, dn, booked, busy)
			}
		}
	})
}
