package middleware

import (
	"fmt"
	"math/rand"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/reduction"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// simSwitches counts the simulator's switches into processes over every
// simulated run: the engine's scheduling work, a host-independent measure
// of what a run costs.
var simSwitches = metrics.GetCounter("fg_sim_switches_total",
	"Coroutine switches into simulated processes across every simulated run.")

// Grid is a set of simulated clusters that runs the FREERIDE-G protocol.
//
// A Grid is immutable after NewGrid and safe for concurrent use: every
// Simulate/SimulateOpts call builds its own simgrid.Engine and executor,
// so any number of simulations may run concurrently against one shared
// Grid (the bench package's parallel sweep runner does exactly that).
// Concurrent runs stay individually deterministic — each engine owns all
// of its mutable state and only reads the shared ClusterSpec values.
type Grid struct {
	clusters map[string]ClusterSpec
}

// NewGrid builds a grid from cluster specs.
func NewGrid(specs ...ClusterSpec) (*Grid, error) {
	g := &Grid{clusters: make(map[string]ClusterSpec, len(specs))}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if _, dup := g.clusters[s.Name]; dup {
			return nil, fmt.Errorf("middleware: duplicate cluster %q", s.Name)
		}
		g.clusters[s.Name] = s
	}
	return g, nil
}

// Cluster returns a registered cluster spec.
func (g *Grid) Cluster(name string) (ClusterSpec, error) {
	s, ok := g.clusters[name]
	if !ok {
		return ClusterSpec{}, fmt.Errorf("middleware: unknown cluster %q", name)
	}
	return s, nil
}

// MeasureIC returns a probe function for core.CalibrateLink: it reports
// the simulated interconnect's one-message cost for a given size, exactly
// the "experimentally determined" w and l measurement the paper prescribes.
func (g *Grid) MeasureIC(cluster string) func(units.Bytes) (time.Duration, error) {
	return func(b units.Bytes) (time.Duration, error) {
		s, err := g.Cluster(cluster)
		if err != nil {
			return 0, err
		}
		return s.ICMessageTime(b), nil
	}
}

// CacheMode selects where chunks live after the first pass.
type CacheMode int

const (
	// CacheMemory holds chunks in compute-node memory: later passes pay
	// no retrieval cost. This is the setting the paper's model assumes.
	CacheMemory CacheMode = iota
	// CacheLocalDisk spills chunks to each compute node's local disk:
	// later passes re-read them at local disk speed. This exercises the
	// middleware's "Data Caching" role when memory is insufficient.
	CacheLocalDisk
)

func (m CacheMode) String() string {
	switch m {
	case CacheMemory:
		return "memory"
	case CacheLocalDisk:
		return "local-disk"
	}
	return fmt.Sprintf("CacheMode(%d)", int(m))
}

// SimOptions selects middleware protocol variants for ablation studies.
// The zero value is the paper's protocol (serialized gather, synchronous
// chunk-round delivery, in-memory caching, no faults).
type SimOptions struct {
	// TreeGather collects reduction objects in ceil(log2 c) parallel
	// combining rounds instead of the serialized master gather the
	// paper's model assumes.
	TreeGather bool
	// AsyncDelivery removes the per-round flow control from pass 0: data
	// servers stream chunks as fast as clients drain them, letting
	// retrieval overlap computation (and breaking the additive
	// decomposition the prediction model relies on).
	AsyncDelivery bool
	// Cache selects the caching tier for passes after the first.
	Cache CacheMode
	// Faults, when non-nil and non-empty, injects the plan's deterministic
	// fault schedule into the run: compute-node crashes trigger failover
	// re-partitioning onto the survivors, slow disks inflate retrieval,
	// and flaky links force retried deliveries. The plan must leave at
	// least one compute node alive.
	Faults *simgrid.FaultPlan
	// Trace, when non-nil, receives one structured Event per middleware
	// phase (run boundaries, per-pass retrieval/delivery/local-reduce/
	// gather/global-reduce/sync/broadcast, plus fault/retry/failover under
	// fault injection) with virtual timestamps — the execution log a real
	// deployment would emit. Use NewTextSink, NewJSONSink, or
	// NewCollector.
	Trace Sink
}

// SimResult is the outcome of one simulated execution.
type SimResult struct {
	// Profile is the summary information the prediction framework
	// consumes (component breakdown measured on the run).
	Profile core.Profile
	// Makespan is the actual wall-clock (virtual) execution time,
	// the T_exact of the paper's error metric.
	Makespan time.Duration
	// Recovery is the run's fault-handling overhead (discarded work,
	// detection timeouts, retry backoff) and Retries its failed-delivery
	// count; both are zero on fault-free runs.
	Recovery time.Duration
	Retries  int
}

// Simulate executes one application run on a simulated configuration,
// following the FREERIDE-G protocol (see Pipeline for the canonical
// phase sequence):
//
//	pass 0:   compute nodes pull chunks from their storage node in
//	          synchronous chunk rounds — each node has one outstanding
//	          chunk request (disk read, then network transfer), processes
//	          the chunk, caches it, and the round completes collectively
//	          (application-level flow control);
//	passes 1+: chunks are processed from the cache;
//	each pass: per-node reduction objects are gathered serially at the
//	          master over the interconnect, the master performs the global
//	          reduction, and re-broadcasts the result.
//
// The synchronous delivery protocol is what makes the paper's additive
// decomposition T_exec = t_d + t_n + t_c hold on this middleware; the
// deviations the prediction model has to absorb come from repository
// contention (DiskAlpha), per-chunk jitter, integer chunk imbalance, the
// serialized gather/global phases, and the constant per-pass
// coordination overhead.
//
// Component times follow the paper's accounting: t_d and t_n are the
// maxima over storage nodes of disk and uplink busy time; t_c is the
// maximum per-compute-node processing time plus the serialized
// reduction-object communication and global reduction.
func (g *Grid) Simulate(cost reduction.CostModel, spec adr.DatasetSpec, cfg core.Config) (SimResult, error) {
	return g.SimulateOpts(cost, spec, cfg, SimOptions{})
}

// SimulateOpts is Simulate with explicit protocol options.
func (g *Grid) SimulateOpts(cost reduction.CostModel, spec adr.DatasetSpec, cfg core.Config, opts SimOptions) (SimResult, error) {
	res, _, err := g.simulateOpts(cost, spec, cfg, opts)
	return res, err
}

// simulateOpts additionally returns the executor so in-package tests can
// inspect execution-level state (e.g. per-chunk processing counts under
// fault injection).
func (g *Grid) simulateOpts(cost reduction.CostModel, spec adr.DatasetSpec, cfg core.Config, opts SimOptions) (SimResult, *simExecutor, error) {
	if err := cost.Validate(); err != nil {
		return SimResult{}, nil, err
	}
	if err := cfg.Validate(); err != nil {
		return SimResult{}, nil, err
	}
	cluster, err := g.Cluster(cfg.Cluster)
	if err != nil {
		return SimResult{}, nil, err
	}
	if cfg.DatasetBytes != spec.TotalBytes {
		return SimResult{}, nil, fmt.Errorf("middleware: config dataset %v != spec %v", cfg.DatasetBytes, spec.TotalBytes)
	}
	layout, err := adr.Partition(spec, cfg.DataNodes, adr.RoundRobin)
	if err != nil {
		return SimResult{}, nil, err
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return SimResult{}, nil, err
		}
	}

	ex, err := newSimExecutor(cluster, cost, cfg, spec, layout, opts)
	if err != nil {
		return SimResult{}, nil, err
	}
	pl := NewPipeline(ex, opts.Trace)
	ex.eng.Spawn("master", func(p *simgrid.Proc) {
		ex.p = p
		if err := pl.Run(); err != nil {
			p.Fail(err)
		}
	})
	ex.spawnWorkers()
	err = ex.eng.Run()
	simSwitches.Add(float64(ex.eng.Switches()))
	if err != nil {
		return SimResult{}, nil, fmt.Errorf("middleware: simulation of %s on %v: %w", cost.Name, cfg, err)
	}

	bd := pl.Breakdown()
	profile := bd.Profile(cost.Name, cfg, ex.roBytes, cost.BroadcastBytes, pl.Iterations())
	if err := profile.Validate(); err != nil {
		return SimResult{}, nil, fmt.Errorf("middleware: simulation produced invalid profile: %w", err)
	}
	return SimResult{
		Profile:  profile,
		Makespan: ex.eng.Now(),
		Recovery: bd.Recovery,
		Retries:  bd.Retries,
	}, ex, nil
}

// simExecutor runs the protocol on simgrid's virtual hardware. Worker
// processes (one per compute node) perform chunk retrieval, delivery,
// and local reduction; the pipeline runs inside a dedicated master
// process whose stage methods coordinate them through mailboxes, exactly
// as the paper's master node does over the interconnect.
type simExecutor struct {
	eng     *simgrid.Engine
	p       *simgrid.Proc // master process, set at spawn
	cluster ClusterSpec
	cost    reduction.CostModel
	opts    SimOptions

	n, c      int
	passes    int
	effRate   float64
	diskBW    units.Rate
	bandwidth units.Rate

	roBytes       units.Bytes
	gatherMsg     time.Duration
	bcastMsg      time.Duration
	globalPerPass time.Duration
	treeRounds    int

	jitter []float64
	rounds int

	// The failover layout and the fault-injection state (nil/empty on
	// fault-free runs).
	faultState
	sink      Sink
	cachedSet []map[int]bool // per compute node: chunk indexes in its caching tier
	processed [][]int        // per pass, per chunk index: times locally reduced (test hook)

	servers     []*simgrid.Resource
	ic          *simgrid.Resource
	readyBox    *simgrid.Mailbox
	gatherBox   *simgrid.Mailbox
	bcastBox    []*simgrid.Mailbox
	roundBarr   *simgrid.Barrier
	passBarrier *simgrid.Barrier
	books       []passBook // per pass: what the workers did in it, read by LocalReduction

	// gatherStage/broadcastStage are the pluggable ablation stages:
	// serialized master gather/broadcast (the paper's protocol) or the
	// combining-tree variant.
	gatherStage    func() time.Duration
	broadcastStage func(pass int) time.Duration
}

// passBook is one pass's accounting, one slot per node. Work is booked
// into the pass it belongs to, however early a worker enters that pass.
type passBook struct {
	servers []serverBook // per storage node
	nodes   []nodeBook   // per compute node
}

// serverBook holds a storage node's disk and uplink busy time (t_d, t_n)
// and its live delivery attempts, the ordinal fault triggers count.
type serverBook struct {
	disk, net time.Duration
	served    int
}

// nodeBook holds a compute node's processing, cached-fetch and recovery
// time and its failed deliveries.
type nodeBook struct {
	comp, cached, recovery time.Duration
	retries                int
}

func newSimExecutor(cluster ClusterSpec, cost reduction.CostModel, cfg core.Config,
	spec adr.DatasetSpec, layout *adr.Layout, opts SimOptions) (*simExecutor, error) {
	n, c := cfg.DataNodes, cfg.ComputeNodes
	effRate := cluster.CPU.EffectiveRate(cost.Mix)
	if effRate <= 0 {
		return nil, fmt.Errorf("middleware: zero effective CPU rate on %q", cfg.Cluster)
	}
	totalElems := spec.Elems()
	ex := &simExecutor{
		eng:           simgrid.NewEngine(),
		cluster:       cluster,
		cost:          cost,
		opts:          opts,
		n:             n,
		c:             c,
		passes:        cost.Iterations,
		effRate:       effRate,
		diskBW:        cluster.EffectiveDiskBW(n),
		bandwidth:     cfg.Bandwidth,
		roBytes:       cost.ROBytesPerNode(totalElems, c),
		globalPerPass: time.Duration(cost.GlobalOps(totalElems, c)) * cluster.GlobalValueCost,
	}
	ex.gatherMsg = cluster.ICMessageTime(ex.roBytes)
	ex.bcastMsg = cluster.ICMessageTime(cost.BroadcastBytes)
	for span := 1; span < c; span *= 2 {
		ex.treeRounds++
	}

	// Deterministic per-chunk disk jitter.
	jrng := rand.New(rand.NewSource(spec.Seed*1000003 + int64(n)*31 + int64(c)))
	ex.jitter = make([]float64, len(layout.Chunks()))
	for i := range ex.jitter {
		ex.jitter[i] = 1 + cluster.JitterAmp*(2*jrng.Float64()-1)
	}

	fs, err := newFaultState(opts.Faults, chunksByCompute(layout, n, c), n, ex.passes)
	if err != nil {
		return nil, err
	}
	ex.faultState = fs
	ex.sink = opts.Trace
	if ex.sched != nil {
		ex.cachedSet = make([]map[int]bool, c)
		for j := range ex.cachedSet {
			ex.cachedSet[j] = make(map[int]bool)
		}
		ex.processed = make([][]int, ex.passes)
		for p := range ex.processed {
			ex.processed[p] = make([]int, len(layout.Chunks()))
		}
	}
	// Pass-0 rounds must cover reassignment-lengthened survivor lists and
	// pass-0 crashers' discarded prefixes.
	for j := 0; j < c; j++ {
		l := len(ex.workFor(0, j))
		if cp, _, ok := ex.sched.crashPoint(j); ok && cp == 0 {
			l = len(ex.wasted[j])
		}
		ex.rounds = max(ex.rounds, l)
	}

	// Each storage node runs a single-threaded data server: one chunk's
	// disk read and network send are serviced as one unit, so a node's
	// retrieval and communication work never overlap — the behavior that
	// makes the paper's additive decomposition hold.
	ex.servers = make([]*simgrid.Resource, n)
	for i := 0; i < n; i++ {
		ex.servers[i] = ex.eng.NewResource(fmt.Sprintf("dataserver%d", i), 1)
	}
	ex.ic = ex.eng.NewResource("interconnect", 1)
	ex.readyBox = ex.eng.NewMailbox("ready")
	ex.gatherBox = ex.eng.NewMailbox("gather")
	ex.bcastBox = make([]*simgrid.Mailbox, c)
	for j := range ex.bcastBox {
		ex.bcastBox[j] = ex.eng.NewMailbox(fmt.Sprintf("bcast%d", j))
	}
	ex.roundBarr = ex.eng.NewBarrier("round", c)
	// The reduction phase is a BSP superstep: all nodes synchronize after
	// local reduction before objects are gathered.
	ex.passBarrier = ex.eng.NewBarrier("pass", c)

	// One backing slice per slot type, cut into per-pass views.
	ex.books = make([]passBook, ex.passes)
	servers, nodes := make([]serverBook, ex.passes*n), make([]nodeBook, ex.passes*c)
	for p := range ex.books {
		ex.books[p] = passBook{servers: servers[p*n : (p+1)*n], nodes: nodes[p*c : (p+1)*c]}
	}

	if opts.TreeGather && c > 1 {
		ex.gatherStage = ex.treeGather
		ex.broadcastStage = ex.treeBroadcast
	} else {
		ex.gatherStage = ex.serialGather
		ex.broadcastStage = ex.serialBroadcast
	}
	return ex, nil
}

// spawnWorkers registers the per-compute-node processes. Spawn order
// fixes the deterministic tie-breaking of simultaneous events, so the
// workers are spawned in node order (after the master).
func (ex *simExecutor) spawnWorkers() {
	for j := 0; j < ex.c; j++ {
		j := j
		ex.eng.Spawn(fmt.Sprintf("compute%d", j), func(p *simgrid.Proc) { ex.worker(p, j) })
	}
}

// worker is one compute node: per pass it performs the chunk phase
// (retrieval/delivery/processing in synchronous rounds on pass 0, cached
// processing afterwards), synchronizes on the pass barrier, hands its
// reduction object to the master, and blocks until the master's result
// broadcast releases it into the next pass.
//
// Under fault injection a node scheduled to crash performs its
// discarded-work prefix, emits a fault event, rides out the master's
// detection timeout, and then turns into a zombie cooperator: it keeps
// arriving at the barriers and mailboxes (so the event engine's rendezvous
// counts stay intact) but does no further work and contributes no
// reduction object — its chunks run on the survivors per the precomputed
// failover assignment.
func (ex *simExecutor) worker(p *simgrid.Proc, j int) {
	procTime := func(ch adr.Chunk) time.Duration {
		return units.Seconds(float64(ch.Elems)*ex.cost.OpsPerElem/ex.effRate) + ex.cluster.ChunkOverhead
	}
	// cachedFetch charges the per-chunk retrieval cost of a pass after
	// the first, per the configured caching tier.
	cachedFetch := func(ch adr.Chunk) time.Duration {
		if ex.opts.Cache == CacheLocalDisk {
			return ex.cluster.DiskSeek + ex.cluster.DiskBW.TransferTime(ch.Bytes)
		}
		return 0
	}
	crashPass, _, hasCrash := ex.sched.crashPoint(j)
	if hasCrash && crashPass >= ex.passes {
		hasCrash = false // crash scheduled beyond the run never fires
	}
	for pass := 0; pass < ex.passes; pass++ {
		crashing := hasCrash && pass == crashPass
		dead := hasCrash && pass > crashPass
		work := ex.workFor(pass, j) // empty for a zombie
		if crashing {
			work = ex.wasted[j]
		}
		book := &ex.books[pass].nodes[j]
		var wastedDur time.Duration
		if pass == 0 {
			// Synchronous chunk rounds: retrieve, transfer, process, then
			// complete the round collectively.
			faulted := false
			for k := 0; k < ex.rounds; k++ {
				if k < len(work) {
					ch := work[k]
					fetch := ex.fetchChunk(p, j, pass, ch, crashing)
					proc := procTime(ch)
					p.Wait(proc)
					if crashing {
						wastedDur += fetch + proc
					} else {
						book.comp += proc
						ex.markDone(pass, j, ch)
					}
				}
				if crashing && !faulted && k+1 >= len(work) {
					// The node dies right after its last completed chunk.
					ex.emitEv(p, pass, PhaseFault, j, 0, "crash")
					faulted = true
				}
				if !ex.opts.AsyncDelivery {
					p.Arrive(ex.roundBarr)
				}
			}
			if crashing && !faulted {
				ex.emitEv(p, pass, PhaseFault, j, 0, "crash")
			}
		} else if !dead {
			// Cached passes: retrieval from the caching tier (free for
			// in-memory caching), then local processing; chunks inherited
			// through failover are re-fetched from their home storage
			// node. The node's own cache reads and processing are booked
			// as they come and add up in pending, taken as one Wait right
			// before the next thing another process sees: a re-fetch (a
			// shared data server) or the end of the chunk phase.
			var pending time.Duration
			flush := func() {
				if pending > 0 {
					p.Wait(pending)
					pending = 0
				}
			}
			for _, ch := range work {
				var fetch time.Duration
				if ex.sched != nil && !ex.cachedSet[j][ch.Index] {
					flush()
					fetch = ex.fetchChunk(p, j, pass, ch, crashing)
				} else {
					fetch = cachedFetch(ch)
					pending += fetch
					if !crashing {
						book.cached += fetch
					}
				}
				proc := procTime(ch)
				pending += proc
				if crashing {
					wastedDur += fetch + proc
				} else {
					book.comp += proc
					ex.markDone(pass, j, ch)
				}
			}
			flush()
			if crashing {
				ex.emitEv(p, pass, PhaseFault, j, 0, "crash")
			}
		}
		if crashing {
			// The master notices the silent node only after its detection
			// timeout; the node's partial pass work is discarded. Both are
			// pure recovery overhead.
			p.Wait(detectTimeout)
			cost := wastedDur + detectTimeout
			book.recovery += cost
			mwFailovers.Inc()
			ex.emitEv(p, pass, PhaseFailover, j, cost,
				fmt.Sprintf("node %d down, %d chunks re-dealt to %d survivors",
					j, ex.lost[j], ex.sched.survivorsAt(pass)))
		}
		p.Arrive(ex.passBarrier)
		if j == 0 {
			// Node 0's object is already at the master; signal the pipeline
			// that the superstep's local reductions are complete. (A dead
			// node 0 still signals: the master's pass clock ticks regardless
			// of which nodes contributed.)
			ex.readyBox.Put(pass)
		} else {
			// Send this node's reduction object to the master — serialized
			// over the interconnect, or as part of a combining tree under
			// the ablation option. Crashed nodes have no object: they keep
			// the gather rendezvous count intact but pay no interconnect.
			if !ex.opts.TreeGather && !crashing && !dead {
				p.Use(ex.ic, ex.gatherMsg)
			}
			ex.gatherBox.Put(j)
		}
		// Wait for the master's result broadcast.
		p.Get(ex.bcastBox[j])
	}
}

// fetchChunk performs one repository chunk fetch for compute node j from
// the chunk's home storage node (pass 0 and failover re-fetch alike),
// riding out injected disk and link faults. Successful transfers book
// that node's disk/uplink busy time (the paper's t_d/t_n accounting);
// failed attempts and their exponential backoff book the fetching node's
// recovery time and emit retry events. When wasted is true (the node is
// in its crash pass) nothing is booked or consumed here — the caller
// folds the returned elapsed time into the discarded-work total, and
// fault ordinals keep counting live deliveries only.
func (ex *simExecutor) fetchChunk(p *simgrid.Proc, j, pass int, ch adr.Chunk, wasted bool) time.Duration {
	t0 := p.Now()
	dn, book := ch.Home, &ex.books[pass]
	srv := &book.servers[dn]
	baseRead := time.Duration(float64(ex.cluster.DiskSeek+ex.diskBW.TransferTime(ch.Bytes)) * ex.jitter[ch.Index])
	send := ex.cluster.NetLatency + ex.bandwidth.TransferTime(ch.Bytes)
	for attempt := 1; ; attempt++ {
		read := baseRead
		linkDown := false
		if ex.sched != nil && !wasted {
			ord := srv.served
			if f, fresh, hit := ex.diskFeeds.next(dn, pass, ord); hit {
				read = time.Duration(float64(read) * f.Factor)
				if fresh {
					ex.emitEv(p, pass, PhaseFault, dn, 0,
						fmt.Sprintf("slow-disk x%.3g on storage node %d", f.Factor, dn))
				}
			}
			if _, fresh, hit := ex.linkFeeds.next(dn, pass, ord); hit {
				linkDown = true
				if fresh {
					ex.emitEv(p, pass, PhaseFault, dn, 0,
						fmt.Sprintf("flaky-link on storage node %d", dn))
				}
			}
			srv.served++
		}
		p.Acquire(ex.servers[dn])
		p.Wait(read + send)
		p.Release(ex.servers[dn])
		if linkDown {
			if attempt > maxRetries {
				p.Fail(fmt.Errorf("middleware: delivery of chunk %d from storage node %d to node %d failed after %d attempts",
					ch.Index, dn, j, attempt))
			}
			backoff := retryBackoff << (attempt - 1)
			p.Wait(backoff)
			cost := read + send + backoff
			book.nodes[j].recovery += cost
			book.nodes[j].retries++
			ex.emitEv(p, pass, PhaseRetry, j, cost,
				fmt.Sprintf("chunk %d from storage node %d, attempt %d", ch.Index, dn, attempt))
			continue
		}
		if !wasted {
			srv.disk += read
			srv.net += send
		}
		return p.Now() - t0
	}
}

// markDone records a completed local reduction of one chunk: the chunk
// enters the node's caching tier and, under fault injection, the
// exactly-once ledger.
func (ex *simExecutor) markDone(pass, j int, ch adr.Chunk) {
	if ex.sched == nil {
		return
	}
	ex.cachedSet[j][ch.Index] = true
	ex.processed[pass][ch.Index]++
}

// emitEv emits one worker-side event at the current virtual time.
func (ex *simExecutor) emitEv(p *simgrid.Proc, pass int, ph Phase, node int, dur time.Duration, detail string) {
	if ex.sink != nil {
		ex.sink.Emit(Event{At: p.Now(), Pass: pass, Phase: ph, Node: node, Dur: dur, Detail: detail})
	}
}

// Backend implements Executor.
func (ex *simExecutor) Backend() string { return "sim" }

// Workload implements Executor.
func (ex *simExecutor) Workload() string { return ex.cost.Name }

// Nodes implements Executor.
func (ex *simExecutor) Nodes() (int, int) { return ex.n, ex.c }

// Passes implements Executor.
func (ex *simExecutor) Passes() int { return ex.passes }

// Now implements Executor (virtual time).
func (ex *simExecutor) Now() time.Duration { return ex.eng.Now() }

// LocalReduction waits for every worker to finish the pass's chunk phase
// and reports the pass's book: each busy time the maximum over nodes per
// the paper's accounting, recovery overhead and retries summed over
// nodes (total overhead, not a critical path).
func (ex *simExecutor) LocalReduction(pass int) (PassStats, error) {
	ex.p.Get(ex.readyBox) // posted by worker 0 at pass-barrier release
	var st PassStats
	for _, s := range ex.books[pass].servers {
		st.Retrieval = max(st.Retrieval, s.disk)
		st.Delivery = max(st.Delivery, s.net)
	}
	for _, w := range ex.books[pass].nodes {
		st.Compute = max(st.Compute, w.comp)
		st.CachedFetch = max(st.CachedFetch, w.cached)
		st.Recovery += w.recovery
		st.Retries += w.retries
	}
	return st, nil
}

// Gather implements Executor via the configured gather stage.
func (ex *simExecutor) Gather(int) (time.Duration, error) { return ex.gatherStage(), nil }

// serialGather awaits the c-1 serialized object transfers (the workers
// pay the interconnect cost; the stage reports the busy-time delta).
func (ex *simExecutor) serialGather() time.Duration {
	busy0 := ex.ic.BusyTime()
	for w := 1; w < ex.c; w++ {
		ex.p.Get(ex.gatherBox)
	}
	return ex.ic.BusyTime() - busy0
}

// treeGather models ceil(log2 c) parallel combining rounds.
func (ex *simExecutor) treeGather() time.Duration {
	for w := 1; w < ex.c; w++ {
		ex.p.Get(ex.gatherBox)
	}
	d := time.Duration(ex.treeRounds) * ex.gatherMsg
	ex.p.Wait(d)
	return d
}

// GlobalReduce charges the master's per-pass global reduction. The
// simulated backend runs a fixed number of passes, so it never converges
// early.
func (ex *simExecutor) GlobalReduce(int) (time.Duration, bool, error) {
	ex.p.Wait(ex.globalPerPass)
	return ex.globalPerPass, false, nil
}

// Sync charges the constant per-pass coordination overhead.
func (ex *simExecutor) Sync(int) (time.Duration, error) {
	ex.p.Wait(ex.cluster.IterSync)
	return ex.cluster.IterSync, nil
}

// Broadcast implements Executor via the configured broadcast stage.
func (ex *simExecutor) Broadcast(pass int, _ bool) (time.Duration, error) {
	return ex.broadcastStage(pass), nil
}

// serialBroadcast sends the result to each worker over the interconnect,
// serialized at the master, then releases node 0 into the next pass.
func (ex *simExecutor) serialBroadcast(pass int) time.Duration {
	busy0 := ex.ic.BusyTime()
	for w := 1; w < ex.c; w++ {
		ex.p.Use(ex.ic, ex.bcastMsg)
		ex.bcastBox[w].Put(pass)
	}
	ex.bcastBox[0].Put(pass)
	return ex.ic.BusyTime() - busy0
}

// treeBroadcast re-distributes the result through the combining tree.
func (ex *simExecutor) treeBroadcast(pass int) time.Duration {
	d := time.Duration(ex.treeRounds) * ex.bcastMsg
	ex.p.Wait(d)
	for w := 1; w < ex.c; w++ {
		ex.bcastBox[w].Put(pass)
	}
	ex.bcastBox[0].Put(pass)
	return d
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
