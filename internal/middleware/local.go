package middleware

import (
	"fmt"
	"sync"
	"time"

	"freerideg/internal/adr"
	"freerideg/internal/core"
	"freerideg/internal/datagen"
	"freerideg/internal/reduction"
	"freerideg/internal/simgrid"
	"freerideg/internal/units"
)

// LocalCluster is the cluster name recorded in profiles produced by the
// local backend.
const LocalCluster = "local"

// ShmStrategy selects how the threads of one compute node share
// reduction state — the FREERIDE shared-memory parallelization
// techniques the middleware inherits (Jin & Agrawal, TKDE 2005), which
// let the same kernel run on distributed memory, shared memory, and
// clusters of SMPs.
type ShmStrategy int

const (
	// FullReplication gives every thread a private reduction object;
	// objects are merged after the pass. No synchronization during
	// processing, at the cost of one object copy per thread.
	FullReplication ShmStrategy = iota
	// FullLocking shares one reduction object per node behind a single
	// lock; threads serialize their updates. Minimal memory, maximal
	// contention.
	FullLocking
)

func (s ShmStrategy) String() string {
	switch s {
	case FullReplication:
		return "full-replication"
	case FullLocking:
		return "full-locking"
	}
	return fmt.Sprintf("ShmStrategy(%d)", int(s))
}

// LocalOptions configures the goroutine backend's node shape: plain
// distributed-memory nodes (Threads = 1) or a cluster of SMPs where each
// compute node runs several threads sharing reduction state through one
// of the FREERIDE techniques. This is the "distributed memory and shared
// memory systems, as well as cluster of SMPs, from a common high-level
// interface" capability the paper's Section 2 describes.
type LocalOptions struct {
	// Threads is the number of processing threads per compute node
	// (0 or 1 = single-threaded nodes; negative is an error).
	Threads int
	// Strategy selects how a node's threads share reduction state.
	Strategy ShmStrategy
	// Faults, when non-nil and non-empty, injects the plan's fault
	// schedule at every thread count, through the same run plan and
	// fault ordinals as SimOptions.Faults: crash faults fail over with
	// real re-partitioning, flaky links force lost deliveries to be
	// re-materialized (pass-0 deliveries and failover re-fetches alike),
	// and slow disks are marked at onset (wall-clock disk speed cannot
	// be degraded in-process).
	Faults *simgrid.FaultPlan
	// Trace, when non-nil, receives the run's structured phase events
	// (same schema as the simulated backend's SimOptions.Trace).
	Trace Sink
}

// LocalResult is the outcome of one real (goroutine-backed) execution.
type LocalResult struct {
	// Profile is the measured component breakdown, in real wall time.
	Profile core.Profile
	// Elapsed is the run's wall-clock duration.
	Elapsed time.Duration
	// Iterations is the number of passes actually performed (kernels may
	// converge before their maximum).
	Iterations int
	// Recovery is the measured fault-handling overhead and Retries the
	// failed-delivery count (zero on fault-free runs). The goroutine
	// backend measures only the real wasted work — re-materialized chunks
	// — not the modeled detection timeouts the simulated backend charges.
	Recovery time.Duration
	Retries  int
}

// RunLocal executes a kernel for real: dataNodes goroutines materialize
// and serve chunks (the data servers), computeNodes goroutines run local
// reductions concurrently (the compute servers), reduction objects cross
// a real encode/decode boundary when they implement BinaryObject, and the
// master performs the global reduction. Chunks are cached in memory after
// the first pass, exactly like the simulated backend: both run through
// the same Pipeline, so the protocol and accounting cannot drift.
//
// The returned profile's component attribution mirrors the paper's:
// t_d is the (max per data node) chunk materialization time, t_n the
// (max per compute node) time blocked receiving chunks, and t_c the
// (max per compute node) processing time plus the serialized gather and
// global reduction times.
func RunLocal(k reduction.Kernel, spec adr.DatasetSpec, dataNodes, computeNodes int) (LocalResult, error) {
	return RunLocalOpts(k, spec, dataNodes, computeNodes, LocalOptions{})
}

// RunLocalOpts is RunLocal with options: opts.Threads workers per compute
// node share its reduction object through opts.Strategy (a cluster of
// SMPs; one node with several threads is a single SMP machine), and
// opts.Faults injects a fault plan. Every thread count streams chunks
// through the data servers, so t_d and t_n are measured the same way.
func RunLocalOpts(k reduction.Kernel, spec adr.DatasetSpec, dataNodes, computeNodes int, opts LocalOptions) (LocalResult, error) {
	if dataNodes < 1 || computeNodes < dataNodes {
		return LocalResult{}, fmt.Errorf("middleware: need computeNodes >= dataNodes >= 1, got %d-%d",
			dataNodes, computeNodes)
	}
	if opts.Threads < 0 {
		return LocalResult{}, fmt.Errorf("middleware: need >= 0 threads per compute node, got %d", opts.Threads)
	}
	switch opts.Strategy {
	case FullReplication, FullLocking:
	default:
		return LocalResult{}, fmt.Errorf("middleware: unknown strategy %v", opts.Strategy)
	}
	gen, err := datagen.For(spec.Kind)
	if err != nil {
		return LocalResult{}, err
	}
	layout, err := adr.Partition(spec, dataNodes, adr.RoundRobin)
	if err != nil {
		return LocalResult{}, err
	}
	var overlap int64
	if or, ok := k.(reduction.OverlapRequester); ok {
		overlap = or.OverlapElems()
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return LocalResult{}, err
		}
	}

	ex := &localExecutor{
		k:        k,
		threads:  max(opts.Threads, 1),
		strategy: opts.Strategy,
		gen:      gen,
		spec:     spec,
		fields:   gen.FieldsPerElem(spec),
		overlap:  overlap,
		n:        dataNodes,
		c:        computeNodes,
		cache:    make([]map[int]reduction.Payload, computeNodes),
		sink:     opts.Trace,
		start:    time.Now(),
	}
	for j := range ex.cache {
		ex.cache[j] = make(map[int]reduction.Payload)
	}
	ex.runPlan, err = newRunPlan(opts.Faults,
		chunksByCompute(layout, dataNodes, computeNodes), dataNodes, k.Iterations())
	if err != nil {
		return LocalResult{}, err
	}
	pl := NewPipeline(ex, RunInfo{"local", k.Name(), dataNodes, computeNodes, k.Iterations()}, opts.Trace)
	if err := pl.Run(); err != nil {
		return LocalResult{}, err
	}
	bd := pl.Breakdown()
	profile := bd.Profile(k.Name(), core.Config{
		Cluster:      LocalCluster,
		DataNodes:    dataNodes,
		ComputeNodes: computeNodes,
		Bandwidth:    units.GBPerSec, // nominal in-process "network"
		DatasetBytes: spec.TotalBytes,
	}, ex.roBytes, units.KB, pl.Iterations())
	return LocalResult{
		Profile:    profile,
		Elapsed:    time.Since(ex.start),
		Iterations: pl.Iterations(),
		Recovery:   bd.Recovery,
		Retries:    bd.Retries,
	}, nil
}

// localExecutor runs the protocol for real on goroutines: data-server
// goroutines materialize and distribute chunks, each compute server runs
// its local reduction on threads worker goroutines sharing the node's
// reduction object per strategy, and the pipeline's master flow gathers,
// reduces globally, and decides convergence.
//
// Under fault injection the backend interprets the simulated backend's
// run plan on wall time: crashed nodes do no work from their crash pass
// on (their fresh per-pass reduction object stays the merge identity,
// which is exactly a lost contribution, so their wasted steps are
// skipped), the data servers re-materialize and send the inherited
// chunks the plan fetches in later passes, and every fetch replays its
// planned delivery attempts. Only the real wasted work is measured — the
// detection timeout the simulated backend models has no wall-clock
// counterpart here.
type localExecutor struct {
	k        reduction.Kernel
	threads  int // workers per compute node
	strategy ShmStrategy
	gen      datagen.Generator
	spec     adr.DatasetSpec
	fields   int
	overlap  int64
	n, c     int
	start    time.Time

	// The run's schedule: each node's steps per pass, and the fault plan.
	runPlan
	sink Sink

	cache   []map[int]reduction.Payload // per compute node, by chunk index
	objs    []reduction.Object
	roBytes units.Bytes
}

// materialize produces one chunk's payload (the local backend's
// "retrieval").
func (ex *localExecutor) materialize(ch adr.Chunk) (reduction.Payload, error) {
	payload := reduction.Payload{Chunk: ch, Fields: ex.fields, Values: ex.gen.ChunkValues(ex.spec, ch)}
	if ex.overlap > 0 {
		before, after, err := datagen.HaloFor(ex.gen, ex.spec, ch, ex.overlap)
		if err != nil {
			return reduction.Payload{}, err
		}
		payload.HaloBefore, payload.HaloAfter = before, after
	}
	return payload, nil
}

// Now implements Executor (wall time since run start).
func (ex *localExecutor) Now() time.Duration { return time.Since(ex.start) }

// LocalReduction runs one pass's chunk phase as the run plan lays it
// out: each data server walks the plan's fetches from it in plan order,
// materializing every chunk and sending it to its compute node, and each
// compute node runs its steps, taking a fetched chunk from its channel
// (and caching it) and a cached one from its cache. Pass 0 fetches every
// chunk; a later pass fetches only what a survivor inherited (the
// "failover re-fetch"). A crashing node's pass is lost work, which this
// backend skips. The pass closes by emitting its incidents: each storage
// node's fault onsets and retries in plan order, storage node by storage
// node, then the crash and failover of every node crashing in it.
func (ex *localExecutor) LocalReduction(pass int) (PhaseBreakdown, error) {
	ex.objs = make([]reduction.Object, ex.c)
	for j := range ex.objs {
		ex.objs[j] = ex.k.NewObject()
	}
	st, incidents, err := ex.chunkPhase(pass)
	if err != nil {
		return st, err
	}
	for j, cr := range ex.crashes {
		if cr.pass == pass {
			incidents = append(incidents, Event{Pass: pass, Phase: PhaseFault, Node: j, Detail: "crash"},
				Event{Pass: pass, Phase: PhaseFailover, Node: j, Detail: cr.failover})
			mwFailovers.Inc()
		}
	}
	at := ex.Now()
	for _, ev := range incidents {
		if ev.Phase == PhaseRetry {
			st.Retries++
			st.Recovery += ev.Dur
		}
		if ex.sink != nil {
			ev.At = at
			ex.sink.Emit(ev)
		}
	}
	return st, nil
}

// dataServer is what one storage node's data server did in a pass: its
// materialization time, its incidents in plan order, and the error that
// stopped it. Only the server's own goroutine writes it.
type dataServer struct {
	disk      time.Duration
	incidents []Event
	err       error
}

// chunkPhase runs the data and compute servers of one pass (see
// LocalReduction) and returns the pass's measurements and incidents. No
// data server outlives it, failed or not.
func (ex *localExecutor) chunkPhase(pass int) (PhaseBreakdown, []Event, error) {
	servers := make([]dataServer, ex.n)
	chans := make([]chan reduction.Payload, ex.c)
	for j := range chans {
		chans[j] = make(chan reduction.Payload, 1)
	}
	// quit releases the data servers once a compute node has failed: its
	// channel is no longer drained, so a pending send would block forever.
	quit := make(chan struct{})
	var stop sync.Once
	errQuit := fmt.Errorf("middleware: pass abandoned")
	var serveWG sync.WaitGroup
	for dn := range servers {
		serveWG.Add(1)
		go func() {
			defer serveWG.Done()
			srv := &servers[dn]
			err := ex.order(pass, func(j, k int) error {
				ch := ex.work[pass][j][k]
				if ex.source(pass, j, k, ch) != dn || ex.crashPass(j) == pass {
					return nil // cached, another server's chunk, or lost crash-pass work
				}
				payload, err := ex.fetch(srv, pass, j, ch, dn, ex.attempts(pass, j, k))
				if err != nil {
					return err
				}
				select {
				case chans[j] <- payload:
					return nil
				case <-quit:
					return errQuit
				}
			})
			if err != errQuit {
				srv.err = err
			}
		}()
	}
	go func() {
		serveWG.Wait()
		for _, c := range chans {
			close(c)
		}
	}()
	waits, busys := make([]time.Duration, ex.c), make([]time.Duration, ex.c)
	errs := make([]error, ex.c)
	var wg sync.WaitGroup
	for j := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if waits[j], busys[j], errs[j] = ex.reduceNode(pass, j, chans[j]); errs[j] != nil {
				stop.Do(func() { close(quit) })
			}
		}()
	}
	wg.Wait()
	serveWG.Wait()
	for _, err := range errs {
		if err != nil {
			return PhaseBreakdown{}, nil, err
		}
	}
	st := PhaseBreakdown{Delivery: maxDur(waits), Compute: maxDur(busys)}
	var incidents []Event
	for _, srv := range servers {
		if srv.err != nil {
			return PhaseBreakdown{}, nil, srv.err
		}
		st.Retrieval = max(st.Retrieval, srv.disk)
		incidents = append(incidents, srv.incidents...)
	}
	return st, incidents, nil
}

// fetch materializes chunk ch from storage node dn for compute node j,
// replaying the fetch's delivery attempts on dn's data server srv: a slow
// disk is marked at onset, and each dropped attempt's materialization is
// recovery overhead before the chunk is materialized again. The
// delivered payload's materialization time is srv's disk time.
func (ex *localExecutor) fetch(srv *dataServer, pass, j int, ch adr.Chunk, dn int, attempts []attempt) (reduction.Payload, error) {
	for i, a := range attempts {
		for _, onset := range a.onsets {
			srv.incidents = append(srv.incidents, Event{Pass: pass, Phase: PhaseFault, Node: dn, Detail: onset})
		}
		t0 := time.Now()
		payload, err := ex.materialize(ch)
		if err != nil {
			return reduction.Payload{}, err
		}
		d := time.Since(t0)
		if !a.dropped {
			srv.disk += d
			return payload, nil
		}
		if i >= maxRetries {
			break
		}
		srv.incidents = append(srv.incidents,
			Event{Pass: pass, Phase: PhaseRetry, Node: j, Dur: d, Detail: retryDetail(ch, dn, i+1)})
	}
	return reduction.Payload{}, deliveryFailed(ch, dn, j, len(attempts))
}

// reduceNode runs compute node j's steps of pass on ex.threads workers,
// each taking the node's next step — a fetched chunk from in, which it
// caches, or a cached one from the node's cache — and folding it into the
// node's object. Under FullReplication every worker after the first folds
// into a private object, merged into the node's after the pass; under
// FullLocking all workers update the node's object behind one mutex.
// Wait and busy are the max over the node's workers; the replica merge
// counts as busy time.
func (ex *localExecutor) reduceNode(pass, j int, in <-chan reduction.Payload) (wait, busy time.Duration, err error) {
	work := ex.work[pass][j]
	if ex.crashPass(j) == pass {
		work = nil
	}
	var stepMu sync.Mutex // guards next and ex.cache[j] across the node's workers
	next := 0
	objs := make([]reduction.Object, ex.threads)
	for w := range objs {
		objs[w] = ex.objs[j]
		if w > 0 && ex.strategy == FullReplication {
			objs[w] = ex.k.NewObject()
		}
	}
	var mu sync.Mutex // the node's object lock under FullLocking
	waits := make([]time.Duration, ex.threads)
	busys := make([]time.Duration, ex.threads)
	errs := make([]error, ex.threads)
	var wg sync.WaitGroup
	for w := range objs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				stepMu.Lock()
				if next == len(work) {
					stepMu.Unlock()
					return
				}
				k := next
				next++
				from := ex.source(pass, j, k, work[k])
				p := ex.cache[j][work[k].Index] // the chunk of a cached step
				stepMu.Unlock()
				if from != cacheTier {
					t0 := time.Now()
					var ok bool
					p, ok = <-in
					waits[w] += time.Since(t0)
					if !ok {
						return // the data servers stopped; their error ends the pass
					}
					stepMu.Lock()
					ex.cache[j][p.Chunk.Index] = p
					stepMu.Unlock()
				}
				t0 := time.Now()
				if ex.strategy == FullLocking {
					mu.Lock()
				}
				err := ex.k.ProcessChunk(p, objs[w])
				if ex.strategy == FullLocking {
					mu.Unlock()
				}
				if err != nil {
					errs[w] = err
					return
				}
				busys[w] += time.Since(t0)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	busy = maxDur(busys)
	if ex.strategy == FullReplication && ex.threads > 1 {
		t0 := time.Now()
		for _, o := range objs[1:] {
			if err := objs[0].Merge(o); err != nil {
				return 0, 0, fmt.Errorf("merge: %w", err)
			}
		}
		busy += time.Since(t0)
	}
	return maxDur(waits), busy, nil
}

// Gather merges worker objects into the master's, crossing a real
// serialization boundary when supported — serialized, as in the paper's
// model.
func (ex *localExecutor) Gather(int) (time.Duration, error) {
	t0 := time.Now()
	if ex.objs[0].Bytes() > ex.roBytes {
		ex.roBytes = ex.objs[0].Bytes() // master's own pre-merge object
	}
	for j := 1; j < ex.c; j++ {
		if ex.objs[j].Bytes() > ex.roBytes {
			ex.roBytes = ex.objs[j].Bytes()
		}
		recv := ex.objs[j]
		if bo, ok := ex.objs[j].(reduction.BinaryObject); ok {
			enc, err := bo.MarshalBinary()
			if err != nil {
				return 0, fmt.Errorf("encode: %w", err)
			}
			fresh, ok := ex.k.NewObject().(reduction.BinaryObject)
			if !ok {
				return 0, fmt.Errorf("kernel %s object lost codec support", ex.k.Name())
			}
			if err := fresh.UnmarshalBinary(enc); err != nil {
				return 0, fmt.Errorf("decode: %w", err)
			}
			recv = fresh
		}
		if err := ex.objs[0].Merge(recv); err != nil {
			return 0, fmt.Errorf("merge: %w", err)
		}
	}
	return time.Since(t0), nil
}

// GlobalReduce runs the kernel's global reduction on the merged object.
func (ex *localExecutor) GlobalReduce(int) (time.Duration, bool, error) {
	t0 := time.Now()
	done, err := ex.k.GlobalReduce(ex.objs[0])
	return time.Since(t0), done, err
}

// Sync implements Executor; the in-process backend has no per-pass
// coordination cost.
func (ex *localExecutor) Sync(int) (time.Duration, error) { return 0, nil }

// Broadcast implements Executor; the globally reduced state lives in the
// kernel, so in-process re-distribution is free.
func (ex *localExecutor) Broadcast(int, bool) (time.Duration, error) { return 0, nil }
