package middleware

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/reduction"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// simEvents and simSwitches count the simulator's calendar events and its
// switches into processes over every simulated run: the engine's
// scheduling work and the share of it that cost a coroutine switch, both
// host-independent measures of what a run costs.
var (
	simEvents = metrics.GetCounter("fg_sim_events_total",
		"Calendar events taken by the simulator across every simulated run.")
	simSwitches = metrics.GetCounter("fg_sim_switches_total",
		"Coroutine switches into simulated processes across every simulated run.")
)

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
	pl := NewPipeline(ex, RunInfo{"sim", cost.Name, ex.n, ex.c, ex.passes}, opts.Trace)
	ex.eng.Spawn("master", func(p *simgrid.Proc) {
		ex.p = p
		if err := pl.Run(); err != nil {
			p.Fail(err)
		}
	})
	ex.spawnWorkers()
	err = ex.eng.Run()
	simEvents.Add(float64(ex.eng.Events()))
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
	// tree is the TreeGather ablation on more than one compute node:
	// gather and broadcast take treeRounds combining-tree rounds instead
	// of the paper's serialized transfers at the master.
	tree       bool
	treeRounds int

	// The run's price table: each chunk's jittered base disk read, by
	// chunk index, and the processing and send time of the dataset's
	// full-size chunk (full), which every chunk but a short tail is.
	read     []time.Duration
	full     adr.Chunk
	fullProc time.Duration
	fullSend time.Duration

	// The run's schedule: each node's steps per pass, and the fault plan.
	runPlan
	sink Sink

	servers     []*simgrid.Resource
	ic          *simgrid.Resource
	readyBox    *simgrid.Mailbox
	gatherBox   *simgrid.Mailbox
	bcastBox    []*simgrid.Mailbox
	roundBarr   *simgrid.Barrier
	passBarrier *simgrid.Barrier
	books       []passBook // per pass: what the workers did in it, read by LocalReduction
}

// passBook is one pass's accounting, one slot per node. Work is booked
// into the pass it belongs to, however early a worker enters that pass.
type passBook struct {
	servers []serverBook // per storage node
	nodes   []nodeBook   // per compute node
}

// serverBook holds a storage node's disk and uplink busy time (t_d, t_n).
type serverBook struct {
	disk, net time.Duration
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
		tree:          opts.TreeGather && c > 1,
	}
	ex.gatherMsg = cluster.ICMessageTime(ex.roBytes)
	ex.bcastMsg = cluster.ICMessageTime(cost.BroadcastBytes)
	for span := 1; span < c; span *= 2 {
		ex.treeRounds++
	}

	// Price every chunk once. The per-chunk disk jitter is drawn in
	// index order; a chunk the size of the full chunk shares its read,
	// so only the tail's is computed apart.
	ex.full.Elems = int64(spec.ChunkBytes / spec.ElemBytes)
	ex.full.Bytes = units.Bytes(ex.full.Elems) * spec.ElemBytes
	ex.fullProc, ex.fullSend = ex.procFormula(ex.full), ex.sendFormula(ex.full)
	fullRead := float64(ex.readFormula(ex.full))
	jrng := rand.New(rand.NewSource(spec.Seed*1000003 + int64(n)*31 + int64(c)))
	ex.read = make([]time.Duration, len(layout.Chunks()))
	for i, ch := range layout.Chunks() {
		base := fullRead
		if ch.Bytes != ex.full.Bytes {
			base = float64(ex.readFormula(ch))
		}
		jitter := 1 + cluster.JitterAmp*(2*jrng.Float64()-1)
		ex.read[i] = time.Duration(base * jitter)
	}

	var err error
	if ex.runPlan, err = newRunPlan(opts.Faults, chunksByCompute(layout, n, c), n, ex.passes); err != nil {
		return nil, err
	}
	ex.sink = opts.Trace

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

// worker is one compute node. Per pass it runs its plan steps: a fetch
// holds the chunk's data server, a cache read and the processing are
// local, and in pass 0 every step is a synchronous chunk round the nodes
// complete collectively (application-level flow control). Then it
// synchronizes on the pass barrier, hands its reduction object to the
// master, and blocks until the master's result broadcast releases it into
// the next pass.
//
// The node does not make its engine calls itself: it queues them in its
// script (see script) and the engine runs them, so a pass-0 round costs
// the engine its events but no coroutine switch. The node's own cache
// reads and processing add up in one Wait, queued right before the next
// thing another process sees: a fetch (a shared data server), a round
// barrier, or the end of the chunk phase. Bookings are time-independent
// sums, made when their steps are queued.
//
// Under fault injection a node scheduled to crash runs its wasted steps,
// emits a fault event, rides out the master's detection timeout, and then
// turns into a zombie cooperator: it keeps arriving at the barriers and
// mailboxes (so the event engine's rendezvous counts stay intact) but has
// no further steps and contributes no reduction object; its chunks run on
// the survivors per the plan.
func (ex *simExecutor) worker(p *simgrid.Proc, j int) {
	// cachedFetch charges a read from the configured caching tier.
	cachedFetch := func(ch adr.Chunk) time.Duration {
		if ex.opts.Cache == CacheLocalDisk {
			return ex.cluster.DiskSeek + ex.cluster.DiskBW.TransferTime(ch.Bytes)
		}
		return 0
	}
	crashPass := ex.crashPass(j)
	// Without a fault plan every cached pass reads the node's same list at
	// the same prices, so its cached fetches and processing are summed once.
	var cachedSum, compSum time.Duration
	if ex.steps == nil && ex.passes > 1 {
		for _, ch := range ex.work[1][j] {
			cachedSum += cachedFetch(ch)
			compSum += ex.procTime(ch)
		}
	}
	q := newScript(p)
	defer q.release()
	for pass := 0; pass < ex.passes; pass++ {
		crashing := pass == crashPass
		dead := crashPass >= 0 && pass > crashPass
		rounds := 0
		if pass == 0 && !ex.opts.AsyncDelivery {
			rounds = ex.rounds
		}
		book := &ex.books[pass].nodes[j]
		var wastedDur time.Duration
		work := ex.work[pass][j]
		n := len(work)
		if pass > 0 && ex.steps == nil {
			q.pending += cachedSum + compSum
			book.cached += cachedSum
			book.comp += compSum
		} else {
			for k, ch := range work {
				if k > 0 && rounds > 0 {
					// The node's next chunk opens the next round.
					q.add(simgrid.ArriveStep(ex.roundBarr))
				}
				var fetch time.Duration
				if from := ex.source(pass, j, k, ch); from == cacheTier {
					fetch = cachedFetch(ch)
					q.pending += fetch
					if !crashing {
						book.cached += fetch
					}
				} else {
					fetch = ex.fetchChunk(q, j, pass, ch, from, ex.attempts(pass, j, k), crashing)
				}
				proc := ex.procTime(ch)
				q.pending += proc
				if crashing {
					wastedDur += fetch + proc
				} else {
					book.comp += proc
				}
			}
		}
		if crashing {
			// The node dies right after its last completed chunk.
			ex.emitEv(q, pass, PhaseFault, j, 0, "crash")
		}
		for k := max(n-1, 0); k < rounds; k++ {
			q.add(simgrid.ArriveStep(ex.roundBarr))
		}
		if crashing {
			// The master notices the silent node only after its detection
			// timeout; the node's partial pass work is discarded. Both are
			// pure recovery overhead.
			q.add(simgrid.WaitStep(detectTimeout))
			cost := wastedDur + detectTimeout
			book.recovery += cost
			mwFailovers.Inc()
			ex.emitEv(q, pass, PhaseFailover, j, cost, ex.crashes[j].failover)
		}
		q.add(simgrid.ArriveStep(ex.passBarrier))
		if j == 0 {
			// Node 0's object is already at the master; signal the pipeline
			// that the superstep's local reductions are complete. (A dead
			// node 0 still signals: the master's pass clock ticks regardless
			// of which nodes contributed.)
			q.run()
			ex.readyBox.Put(pass)
		} else {
			// Send this node's reduction object to the master — serialized
			// over the interconnect, or as part of a combining tree under
			// the ablation option. Crashed nodes have no object: they keep
			// the gather rendezvous count intact but pay no interconnect.
			if !ex.tree && !crashing && !dead {
				q.hold(ex.ic, ex.gatherMsg)
			}
			q.run()
			ex.gatherBox.Put(j)
		}
		// Wait for the master's result broadcast.
		p.Get(ex.bcastBox[j])
	}
}

// script is a worker's engine calls not yet made: the steps it has
// queued, which the engine runs in one Proc.Do when the worker must see
// the clock or hand off (run), or when the step buffer is full. Local
// work (cache reads, processing) accumulates in pending and is queued as
// one Wait in front of the next step, so back-to-back local work takes
// one Wait, and none at all when it sums to zero.
type script struct {
	p       *simgrid.Proc
	steps   [scriptCap]simgrid.Step
	n       int // queued steps
	pending time.Duration
}

// scriptCap bounds a script. A pass-0 chunk queues five steps (local
// work, round barrier, data-server hold), so a full buffer runs about 50
// chunks' calls at once.
const scriptCap = 256

// scripts recycles scripts across workers and simulations: a sweep runs
// hundreds of simulations, and a fresh step buffer per worker would add
// about a quarter to the sweep's heap.
var scripts = sync.Pool{New: func() any { return new(script) }}

func newScript(p *simgrid.Proc) *script {
	q := scripts.Get().(*script)
	q.p = p
	return q
}

// release hands the script back, cleared so the pool holds no pointer
// into this run. The worker's deferred call makes it also when a failed
// run unwinds the worker.
func (q *script) release() {
	*q = script{}
	scripts.Put(q)
}

// add queues s behind the pending local work.
func (q *script) add(s simgrid.Step) {
	q.queueLocal()
	q.push(s)
}

// hold queues holding r for d: acquire, wait, release.
func (q *script) hold(r *simgrid.Resource, d time.Duration) {
	q.add(simgrid.AcquireStep(r))
	q.push(simgrid.WaitStep(d))
	q.push(simgrid.ReleaseStep(r))
}

// run makes every queued call, the pending local work included, and
// returns at the virtual time the last one completes.
func (q *script) run() {
	q.queueLocal()
	if q.n > 0 {
		q.p.Do(q.steps[:q.n])
		q.n = 0
	}
}

func (q *script) queueLocal() {
	if d := q.pending; d > 0 {
		q.pending = 0
		q.push(simgrid.WaitStep(d))
	}
}

func (q *script) push(s simgrid.Step) {
	if q.n == scriptCap {
		q.run()
	}
	q.steps[q.n] = s
	q.n++
}

// procTime is the local reduction time of one chunk, from the price
// table unless it is the short tail.
func (ex *simExecutor) procTime(ch adr.Chunk) time.Duration {
	if ch.Elems == ex.full.Elems {
		return ex.fullProc
	}
	return ex.procFormula(ch)
}

// sendTime is the uplink time of one chunk's delivery, from the price
// table unless it is the short tail.
func (ex *simExecutor) sendTime(ch adr.Chunk) time.Duration {
	if ch.Bytes == ex.full.Bytes {
		return ex.fullSend
	}
	return ex.sendFormula(ch)
}

// procFormula, sendFormula and readFormula price one chunk's processing,
// its send, and its disk read before jitter.
func (ex *simExecutor) procFormula(ch adr.Chunk) time.Duration {
	return units.Seconds(float64(ch.Elems)*ex.cost.OpsPerElem/ex.effRate) + ex.cluster.ChunkOverhead
}

func (ex *simExecutor) sendFormula(ch adr.Chunk) time.Duration {
	return ex.cluster.NetLatency + ex.bandwidth.TransferTime(ch.Bytes)
}

func (ex *simExecutor) readFormula(ch adr.Chunk) time.Duration {
	return ex.cluster.DiskSeek + ex.diskBW.TransferTime(ch.Bytes)
}

// fetchChunk queues one plan fetch for compute node j: chunk ch from
// storage node dn, replaying the fetch's delivery attempts. A delivered
// attempt books that node's disk/uplink busy time (the paper's t_d/t_n
// accounting); dropped attempts and their exponential backoff book the
// fetching node's recovery time and emit retry events. A wasted fetch
// books nothing here: it is made at once, and its elapsed time is
// returned for the caller to fold into the discarded-work total.
func (ex *simExecutor) fetchChunk(q *script, j, pass int, ch adr.Chunk, dn int, attempts []attempt, wasted bool) time.Duration {
	var t0 time.Duration
	if wasted {
		q.run()
		t0 = q.p.Now()
	}
	book := &ex.books[pass]
	baseRead, send := ex.read[ch.Index], ex.sendTime(ch)
	for i := range attempts {
		a := &attempts[i]
		read := baseRead
		if a.slow > 0 {
			read = time.Duration(float64(read) * a.slow)
		}
		for _, onset := range a.onsets {
			ex.emitEv(q, pass, PhaseFault, dn, 0, onset)
		}
		q.hold(ex.servers[dn], read+send)
		if !a.dropped {
			if !wasted {
				book.servers[dn].disk += read
				book.servers[dn].net += send
			}
			break
		}
		if i >= maxRetries {
			q.run()
			q.p.Fail(deliveryFailed(ch, dn, j, i+1))
		}
		backoff := retryBackoff << i
		q.add(simgrid.WaitStep(backoff))
		cost := read + send + backoff
		book.nodes[j].recovery += cost
		book.nodes[j].retries++
		ex.emitEv(q, pass, PhaseRetry, j, cost, retryDetail(ch, dn, i+1))
	}
	if !wasted {
		return 0
	}
	q.run()
	return q.p.Now() - t0
}

// emitEv emits one worker-side event at the virtual time the worker's
// queued calls complete: an event needs the clock, so it runs them first.
func (ex *simExecutor) emitEv(q *script, pass int, ph Phase, node int, dur time.Duration, detail string) {
	if ex.sink != nil {
		q.run()
		ex.sink.Emit(Event{At: q.p.Now(), Pass: pass, Phase: ph, Node: node, Dur: dur, Detail: detail})
	}
}

// Now implements Executor (virtual time).
func (ex *simExecutor) Now() time.Duration { return ex.eng.Now() }

// LocalReduction waits for every worker to finish the pass's chunk phase
// and reports the pass's book: each busy time the maximum over nodes per
// the paper's accounting, recovery overhead and retries summed over
// nodes (total overhead, not a critical path).
func (ex *simExecutor) LocalReduction(pass int) (PhaseBreakdown, error) {
	ex.p.Get(ex.readyBox) // posted by worker 0 at pass-barrier release
	var st PhaseBreakdown
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

// Gather awaits the c-1 reduction objects. Serialized, the workers pay
// the interconnect and the stage reports its busy-time delta; the
// combining tree charges its rounds at the master.
func (ex *simExecutor) Gather(int) (time.Duration, error) {
	busy0 := ex.ic.BusyTime()
	for w := 1; w < ex.c; w++ {
		ex.p.Get(ex.gatherBox)
	}
	if !ex.tree {
		return ex.ic.BusyTime() - busy0, nil
	}
	d := time.Duration(ex.treeRounds) * ex.gatherMsg
	ex.p.Wait(d)
	return d, nil
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

// Broadcast re-distributes the result to every worker, serialized over
// the interconnect at the master or through the combining tree, then
// releases node 0 into the next pass.
func (ex *simExecutor) Broadcast(pass int, _ bool) (time.Duration, error) {
	d := time.Duration(ex.treeRounds) * ex.bcastMsg
	if ex.tree {
		ex.p.Wait(d)
	}
	busy0 := ex.ic.BusyTime()
	for w := 1; w < ex.c; w++ {
		if !ex.tree {
			ex.p.Use(ex.ic, ex.bcastMsg)
		}
		ex.bcastBox[w].Put(pass)
	}
	ex.bcastBox[0].Put(pass)
	if !ex.tree {
		d = ex.ic.BusyTime() - busy0
	}
	return d, nil
}
