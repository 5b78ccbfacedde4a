package middleware

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/reduction"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// countingKernel decorates a kernel with an exactly-once ledger: every
// ProcessChunk call is tallied per chunk index, so tests can prove that
// under failover each chunk is processed exactly once per pass — never
// dropped with its dead owner, never double-run on a survivor.
type countingKernel struct {
	reduction.Kernel
	mu     sync.Mutex
	counts map[int]int
}

func newCountingKernel(k reduction.Kernel) *countingKernel {
	return &countingKernel{Kernel: k, counts: make(map[int]int)}
}

func (ck *countingKernel) ProcessChunk(p reduction.Payload, obj reduction.Object) error {
	ck.mu.Lock()
	ck.counts[p.Chunk.Index]++
	ck.mu.Unlock()
	return ck.Kernel.ProcessChunk(p, obj)
}

// checkExactlyOnce asserts every chunk of the layout was processed
// exactly passes times (once per pass).
func (ck *countingKernel) checkExactlyOnce(t *testing.T, chunks, passes int) {
	t.Helper()
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if len(ck.counts) != chunks {
		t.Errorf("%d distinct chunks processed, layout has %d", len(ck.counts), chunks)
	}
	for idx, n := range ck.counts {
		if n != passes {
			t.Errorf("chunk %d processed %d times over %d passes, want exactly once per pass",
				idx, n, passes)
		}
	}
}

// centersKernel is the slice of the kmeans kernel the result checks need.
type centersKernel interface {
	Centers() [][]float64
}

// requireCentersClose compares cluster centers within a relative
// tolerance: failover changes the grouping of floating-point sums, so
// faulted runs agree with fault-free ones only up to rounding.
func requireCentersClose(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d centers, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			diff := math.Abs(got[i][j] - want[i][j])
			scale := math.Max(1, math.Abs(want[i][j]))
			if diff/scale > 1e-6 {
				t.Fatalf("center[%d][%d] = %v, want %v (rel err %v)",
					i, j, got[i][j], want[i][j], diff/scale)
			}
		}
	}
}

func kmeansKernel(t *testing.T, spec adr.DatasetSpec) reduction.Kernel {
	t.Helper()
	a, err := apps.Get("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	k, err := a.NewKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func chunkCount(t *testing.T, spec adr.DatasetSpec, dataNodes int) int {
	t.Helper()
	layout, err := adr.Partition(spec, dataNodes, adr.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return len(layout.Chunks())
}

// Under any generated plan that leaves a compute node alive, the
// simulated backend terminates and its recovery accounting reconciles
// (FuzzPlanBooks checks that the plan covers every chunk exactly once per
// pass): the traced retry and
// failover durations sum to the reported recovery time, and the traced
// phase totals still reproduce the profile breakdown exactly. Each
// storage node's booked t_d + t_n over all passes is exactly its data
// server's busy time on the fault-free run, and at most that under a
// plan: failed and discarded deliveries hold the server but are not
// booked.
func TestSimFaultRecoveryProperties(t *testing.T) {
	g := testGrid(t)
	total := 64 * units.MB
	a, _ := apps.Get("kmeans")
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	const dataNodes, computeNodes = 2, 4
	cfg := config(dataNodes, computeNodes, total)

	// checkBooks compares each storage node's booked busy time with its
	// data server's.
	checkBooks := func(name string, ex *simExecutor, exact bool) {
		for dn, srv := range ex.servers {
			var booked time.Duration
			for _, b := range ex.books {
				booked += b.servers[dn].disk + b.servers[dn].net
			}
			if busy := srv.BusyTime(); booked > busy || exact && booked != busy {
				t.Errorf("%s: storage node %d booked %v, its data server was busy %v", name, dn, booked, busy)
			}
		}
	}
	base, baseEx, err := g.simulateOpts(cost, spec, cfg, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Recovery != 0 || base.Retries != 0 {
		t.Fatalf("fault-free run reports recovery %v, %d retries", base.Recovery, base.Retries)
	}
	checkBooks("fault-free", baseEx, true)

	for seed := int64(1); seed <= 20; seed++ {
		plan := simgrid.GenerateFaultPlan(seed, dataNodes, computeNodes, cost.Iterations)
		col := NewCollector()
		res, ex, err := g.simulateOpts(cost, spec, cfg, SimOptions{Faults: &plan, Trace: col})
		if err != nil {
			t.Fatalf("seed %d (%v): %v", seed, plan.Faults, err)
		}
		if got := col.PhaseTotal(PhaseRetry) + col.PhaseTotal(PhaseFailover); got != res.Recovery {
			t.Errorf("seed %d: traced retry+failover = %v, result recovery = %v", seed, got, res.Recovery)
		}
		if got, want := col.Breakdown(), res.Profile.Breakdown; got != want {
			t.Errorf("seed %d: collector breakdown %+v != profile breakdown %+v", seed, got, want)
		}
		if res.Makespan < base.Makespan {
			t.Errorf("seed %d: faulted makespan %v beats fault-free %v", seed, res.Makespan, base.Makespan)
		}
		checkBooks(fmt.Sprintf("seed %d", seed), ex, false)
	}
}

// A chunk re-dealt at a crash is re-fetched from the storage node that
// holds it, not from the survivor's own: with node 1 crashing in pass 1
// at 2-4, the chunks it held (all stored on storage node 1) are read and
// sent again by storage node 1 alone, and storage node 0 does exactly its
// fault-free work.
func TestFailoverRefetchesFromHomeServer(t *testing.T) {
	total := 8 * units.MB
	spec := pointsSpec(total)
	spec.ChunkBytes = 256 * units.KB
	a, _ := apps.Get("kmeans")
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := simgrid.ParseFaultPlan("crash node=1 pass=1 chunk=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config(2, 4, total)
	_, free, err := testGrid(t).simulateOpts(cost, spec, cfg, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ex, err := testGrid(t).simulateOpts(cost, spec, cfg, SimOptions{Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex.servers[0].BusyTime(), free.servers[0].BusyTime(); got != want {
		t.Errorf("storage node 0 busy %v, want its fault-free %v", got, want)
	}
	var refetch time.Duration
	for _, ch := range ex.work[0][1] {
		if ch.Home != 1 {
			t.Fatalf("node 1's chunk %d lives on storage node %d", ch.Index, ch.Home)
		}
		refetch += ex.read[ch.Index] + ex.cluster.NetLatency + ex.bandwidth.TransferTime(ch.Bytes)
	}
	if got, want := ex.servers[1].BusyTime(), free.servers[1].BusyTime()+refetch; got != want {
		t.Errorf("storage node 1 busy %v, want its fault-free %v plus the re-fetches' %v",
			got, free.servers[1].BusyTime(), refetch)
	}
}

// The goroutine backend computes the same reduction under faults as
// without, at every thread count and sharing strategy: every chunk lands
// exactly once per pass on a surviving node, the final kmeans centers
// match the fault-free run's up to floating-point regrouping, and the
// recovery accounting reconciles with the trace. Storage rows also
// demand that the plan's flaky links forced retried deliveries and that
// retrieval and delivery were measured.
func TestLocalFaultRecoveryProperties(t *testing.T) {
	spec := localSpec("points")
	all := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		shape   localShape
		seeds   []int64
		storage bool
	}{
		{localShape{2, 3, 1, FullReplication}, all, false},
		{localShape{2, 3, 2, FullReplication}, all, false},
		{localShape{2, 3, 2, FullLocking}, all, false},
		// One SMP node: the generator never crashes the last compute
		// node, so these plans are storage-only.
		{localShape{1, 1, 2, FullReplication}, all, false},
		{localShape{2, 4, 2, FullReplication}, []int64{7}, true},
		{localShape{2, 4, 2, FullLocking}, []int64{7}, true},
	} {
		t.Run(tc.shape.String(), func(t *testing.T) {
			baseKernel := kmeansKernel(t, spec)
			baseRes, err := tc.shape.run(baseKernel, spec)
			if err != nil {
				t.Fatal(err)
			}
			baseCenters := baseKernel.(centersKernel).Centers()
			chunks := chunkCount(t, spec, tc.shape.data)

			for _, seed := range tc.seeds {
				plan := simgrid.GenerateFaultPlan(seed, tc.shape.data, tc.shape.compute, baseKernel.Iterations())
				ck := newCountingKernel(kmeansKernel(t, spec))
				col := NewCollector()
				opts := tc.shape.opts()
				opts.Faults, opts.Trace = &plan, col
				res, err := RunLocalOpts(ck, spec, tc.shape.data, tc.shape.compute, opts)
				if err != nil {
					t.Fatalf("seed %d (%v): %v", seed, plan.Faults, err)
				}
				if res.Iterations != baseRes.Iterations {
					t.Fatalf("seed %d: %d iterations, fault-free run took %d", seed, res.Iterations, baseRes.Iterations)
				}
				ck.checkExactlyOnce(t, chunks, res.Iterations)
				requireCentersClose(t, ck.Kernel.(centersKernel).Centers(), baseCenters)
				if got := col.PhaseTotal(PhaseRetry) + col.PhaseTotal(PhaseFailover); got != res.Recovery {
					t.Errorf("seed %d: traced retry+failover = %v, result recovery = %v", seed, got, res.Recovery)
				}
				if got, want := col.Breakdown(), res.Profile.Breakdown; got != want {
					t.Errorf("seed %d: collector breakdown %+v != profile breakdown %+v", seed, got, want)
				}
				if tc.storage && (res.Retries == 0 || res.Profile.Tdisk <= 0 || res.Profile.Tnetwork <= 0) {
					t.Errorf("seed %d (%v): %d retries, t_d %v, t_n %v; want the storage faults honoured and measured",
						seed, plan.Faults, res.Retries, res.Profile.Tdisk, res.Profile.Tnetwork)
				}
			}
		})
	}

	crash := simgrid.FaultPlan{Faults: []simgrid.Fault{{Kind: simgrid.FaultCrash, Node: 0}}}
	if _, err := RunLocalOpts(kmeansKernel(t, spec), spec, 1, 1,
		LocalOptions{Threads: 2, Faults: &crash}); err == nil {
		t.Error("plan crashing the only compute node accepted")
	}
}

// A plan that crashes every compute node must be rejected, not deadlock.
func TestAllNodesCrashedRejected(t *testing.T) {
	g := testGrid(t)
	total := 64 * units.MB
	a, _ := apps.Get("kmeans")
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := simgrid.FaultPlan{Faults: []simgrid.Fault{
		{Kind: simgrid.FaultCrash, Node: 0, Pass: 1},
		{Kind: simgrid.FaultCrash, Node: 1},
	}}
	if _, err := g.SimulateOpts(cost, spec, config(1, 2, total), SimOptions{Faults: &plan}); err == nil {
		t.Error("all-nodes-crash plan accepted by sim backend")
	}
	k := kmeansKernel(t, localSpec("points"))
	if _, err := RunLocalOpts(k, localSpec("points"), 1, 2, LocalOptions{Faults: &plan}); err == nil {
		t.Error("all-nodes-crash plan accepted by local backend")
	}
}

// A chunk delivery is retried maxRetries times and then aborts the run,
// on both backends: at 1-1 a flaky link dropping the first five
// deliveries is ridden out with exactly five retries, one dropping six
// fails the sixth attempt. The aborted goroutine run must leave no
// goroutine behind.
func TestRetryExhaustion(t *testing.T) {
	g := testGrid(t)
	total := 64 * units.MB
	a, _ := apps.Get("kmeans")
	simSpec := pointsSpec(total)
	cost, err := a.Cost(simSpec)
	if err != nil {
		t.Fatal(err)
	}
	lspec := localSpec("points")
	plan := func(count int) *simgrid.FaultPlan {
		p, err := simgrid.ParseFaultPlan(fmt.Sprintf("flaky-link node=0 count=%d", count))
		if err != nil {
			t.Fatal(err)
		}
		return &p
	}
	const wantErr = "failed after 6 attempts"

	res, err := g.SimulateOpts(cost, simSpec, config(1, 1, total), SimOptions{Faults: plan(maxRetries)})
	if err != nil || res.Retries != maxRetries {
		t.Errorf("sim, %d drops: %d retries, err %v; want %d retries", maxRetries, res.Retries, err, maxRetries)
	}
	_, err = g.SimulateOpts(cost, simSpec, config(1, 1, total), SimOptions{Faults: plan(maxRetries + 1)})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("sim, %d drops: err %v, want %q", maxRetries+1, err, wantErr)
	}

	lres, err := RunLocalOpts(kmeansKernel(t, lspec), lspec, 1, 1, LocalOptions{Faults: plan(maxRetries)})
	if err != nil || lres.Retries != maxRetries {
		t.Errorf("local, %d drops: %d retries, err %v; want %d retries", maxRetries, lres.Retries, err, maxRetries)
	}
	before := runtime.NumGoroutine()
	_, err = RunLocalOpts(kmeansKernel(t, lspec), lspec, 1, 1, LocalOptions{Faults: plan(maxRetries + 1)})
	if err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Errorf("local, %d drops: err %v, want %q", maxRetries+1, err, wantErr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the aborted run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
