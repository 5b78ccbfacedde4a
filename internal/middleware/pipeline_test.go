package middleware

import (
	"testing"

	"freerideg/internal/adr"
	"freerideg/internal/apps"
	"freerideg/internal/core"
	"freerideg/internal/units"
)

// The collector's per-phase aggregation must reproduce the returned
// profile's (t_d, t_n, t_c) exactly: both are fed by the same Pipeline
// accounting, so traced events are a lossless decomposition of the
// breakdown.
func TestCollectorBreakdownMatchesSimProfile(t *testing.T) {
	g := testGrid(t)
	total := 512 * units.MB
	a, _ := apps.Get("em")
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	res, err := g.SimulateOpts(cost, spec, config(2, 8, total), SimOptions{Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := col.Breakdown(), res.Profile.Breakdown; got != want {
		t.Errorf("collector breakdown %+v != profile breakdown %+v", got, want)
	}
	// Phase-level consistency: Tro = gather + broadcast, Tglobal = global.
	if got, want := col.PhaseTotal(PhaseGather)+col.PhaseTotal(PhaseBroadcast), res.Profile.Tro; got != want {
		t.Errorf("gather+broadcast = %v, profile Tro = %v", got, want)
	}
	if got, want := col.PhaseTotal(PhaseGlobalReduce), res.Profile.Tglobal; got != want {
		t.Errorf("global-reduce total = %v, profile Tglobal = %v", got, want)
	}
	if got, want := col.PhaseTotal(PhaseCachedFetch), res.Profile.TdiskCached; got != want {
		t.Errorf("cached-fetch total = %v, profile TdiskCached = %v", got, want)
	}
}

// The goroutine backend's trace reproduces its profile at every node
// shape, framed by run-start/run-end and with compute time accounted.
func TestCollectorBreakdownMatchesLocalProfile(t *testing.T) {
	spec := localSpec("points")
	for _, shape := range []localShape{
		{1, 2, 1, FullReplication},
		{1, 2, 2, FullLocking},
		{1, 1, 2, FullReplication},
	} {
		t.Run(shape.String(), func(t *testing.T) {
			col := NewCollector()
			opts := shape.opts()
			opts.Trace = col
			res, err := RunLocalOpts(kmeansKernel(t, spec), spec, shape.data, shape.compute, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := col.Breakdown(), res.Profile.Breakdown; got != want {
				t.Errorf("collector breakdown %+v != profile breakdown %+v", got, want)
			}
			events := col.Events()
			if len(events) == 0 {
				t.Fatal("no events emitted")
			}
			if events[0].Phase != PhaseRunStart || events[len(events)-1].Phase != PhaseRunEnd {
				t.Errorf("stream not framed by run-start/run-end: %v .. %v",
					events[0].Phase, events[len(events)-1].Phase)
			}
			if res.Iterations < 1 {
				t.Errorf("iterations = %d", res.Iterations)
			}
			if res.Profile.Breakdown.Tcompute == 0 {
				t.Error("profile has zero compute time")
			}
		})
	}
}

// The fault-free placement every run plan starts from: compute node j
// receives chunks of storage node j mod n only, a storage node deals its
// chunks round-robin to its clients in delivery order, and every chunk
// of the layout lands on exactly one compute node. The oracle reads each
// storage node's chunks off the layout by Home, under both decluster
// policies and with chunk counts that n and c do and do not divide.
func TestPartitionHelpersAgree(t *testing.T) {
	spec := pointsSpec(520 * units.MB) // 65 chunks
	for _, policy := range []adr.DeclusterPolicy{adr.RoundRobin, adr.Blocked} {
		for _, nc := range [][2]int{{1, 1}, {1, 4}, {2, 5}, {3, 3}, {3, 8}, {4, 16}, {5, 100}} {
			n, c := nc[0], nc[1]
			layout, err := adr.Partition(spec, n, policy)
			if err != nil {
				t.Fatal(err)
			}
			byCompute := chunksByCompute(layout, n, c)
			homes := make([][]adr.Chunk, n) // per storage node: its chunks in index order
			clients := make([][]int, n)     // per storage node: the compute nodes it serves
			for _, ch := range layout.Chunks() {
				homes[ch.Home] = append(homes[ch.Home], ch)
			}
			for j := 0; j < c; j++ {
				clients[j%n] = append(clients[j%n], j)
			}
			got := 0
			for j, chunks := range byCompute {
				dn := j % n
				cl := clients[dn]
				q := 0
				for cl[q] != j {
					q++
				}
				home := homes[dn]
				for k, ch := range chunks {
					if i := q + k*len(cl); i >= len(home) || home[i] != ch {
						t.Errorf("%v %d-%d: compute node %d's chunk %d is %+v, want the %d-th of storage node %d",
							policy, n, c, j, k, ch, i, dn)
					}
				}
				if want := (len(home) - q + len(cl) - 1) / len(cl); len(chunks) != want {
					t.Errorf("%v %d-%d: compute node %d: %d chunks, want %d", policy, n, c, j, len(chunks), want)
				}
				got += len(chunks)
			}
			if want := len(layout.Chunks()); got != want {
				t.Errorf("%v %d-%d: %d chunks assigned, layout has %d", policy, n, c, got, want)
			}
		}
	}
}

// The ablation stages stay pluggable: tree gather changes the accounted
// reduction-object communication but leaves the protocol intact.
func TestTreeGatherStillTraced(t *testing.T) {
	g := testGrid(t)
	total := 512 * units.MB
	a, _ := apps.Get("kmeans")
	spec := pointsSpec(total)
	cost, err := a.Cost(spec)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	res, err := g.SimulateOpts(cost, spec, config(2, 8, total), SimOptions{TreeGather: true, Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := col.Breakdown(), res.Profile.Breakdown; got != want {
		t.Errorf("collector breakdown %+v != profile breakdown %+v", got, want)
	}
	if col.PhaseTotal(PhaseGather) == 0 {
		t.Error("tree gather accounted zero gather time")
	}
}

// PhaseBreakdown.Profile must agree with the component mapping.
func TestPhaseBreakdownMapping(t *testing.T) {
	b := PhaseBreakdown{
		Retrieval: 1, Delivery: 2, CachedFetch: 4, Compute: 8,
		Gather: 16, Global: 32, Sync: 64, Broadcast: 128,
	}
	if got := b.Tdisk(); got != 5 {
		t.Errorf("Tdisk = %v", got)
	}
	if got := b.Tnetwork(); got != 2 {
		t.Errorf("Tnetwork = %v", got)
	}
	if got := b.Tcompute(); got != 8+16+32+64+128 {
		t.Errorf("Tcompute = %v", got)
	}
	if got := b.Tro(); got != 16+128 {
		t.Errorf("Tro = %v", got)
	}
	p := b.Profile("x", core.Config{}, 0, 0, 3)
	if p.Tro != b.Tro() || p.Tglobal != b.Global || p.TdiskCached != b.CachedFetch {
		t.Errorf("profile fields %+v inconsistent with breakdown %+v", p, b)
	}
	if p.Iterations != 3 {
		t.Errorf("iterations = %d", p.Iterations)
	}
}
