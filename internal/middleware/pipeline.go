package middleware

import (
	"fmt"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/units"
)

// Fault-recovery metrics, accumulated across every backend: the pipeline
// is the one place both execution paths converge, so run and retry
// totals are counted here; failovers are counted where each executor
// raises its failover event.
var (
	mwRuns = metrics.GetCounter("fg_mw_runs_total",
		"Pipeline runs completed across all execution backends.")
	mwRetries = metrics.GetCounter("fg_mw_retries_total",
		"Chunk-delivery retries across all execution backends.")
	mwFailovers = metrics.GetCounter("fg_mw_failovers_total",
		"Compute-node crash failovers recovered across all execution backends.")
	mwRecoverySeconds = metrics.GetCounter("fg_mw_recovery_seconds_total",
		"Fault-recovery overhead (discarded work, detection timeouts, retry backoff) in seconds.")
)

// Executor plugs one backend's stage implementations into the Pipeline.
// The Pipeline owns the protocol sequence and all accounting; stage
// methods perform (or simulate) the work of one phase of one pass and
// report the duration charged to it.
type Executor interface {
	// Now is the time since run start: virtual time on the simulated
	// backend, wall time on the goroutine backend.
	Now() time.Duration
	// LocalReduction runs one pass's chunk phase on every node: first-pass
	// retrieval/delivery/processing, or cached-pass re-fetch/processing.
	// It reports the pass's Retrieval, Delivery, CachedFetch, Compute,
	// Recovery and Retries.
	LocalReduction(pass int) (PhaseBreakdown, error)
	// Gather collects every worker's reduction object at the master.
	Gather(pass int) (time.Duration, error)
	// GlobalReduce performs the master's global reduction; done stops the
	// pipeline after the broadcast.
	GlobalReduce(pass int) (time.Duration, bool, error)
	// Sync charges the master's per-pass coordination overhead.
	Sync(pass int) (time.Duration, error)
	// Broadcast re-distributes the globally reduced result to the workers
	// (and must release them even when done).
	Broadcast(pass int, done bool) (time.Duration, error)
}

// RunInfo names a run for its pipeline.
type RunInfo struct {
	// Backend names the execution backend ("sim" or "local") and
	// Workload the application or kernel being run.
	Backend, Workload string
	// Data and Compute are the storage and compute node counts.
	Data, Compute int
	// Passes is the maximum number of passes (kernels may converge and
	// stop the pipeline early via GlobalReduce).
	Passes int
}

// PhaseBreakdown is the canonical per-phase accounting of one run, or of
// one pass's chunk phase. Per-node phases carry the maximum over nodes,
// the paper's component accounting.
type PhaseBreakdown struct {
	// Retrieval is first-pass chunk retrieval (max over storage nodes).
	Retrieval time.Duration
	// Delivery is first-pass chunk communication (max over nodes).
	Delivery time.Duration
	// CachedFetch is cached-pass re-retrieval (max over compute nodes).
	CachedFetch time.Duration
	// Compute is local reduction processing (max over compute nodes).
	Compute   time.Duration
	Gather    time.Duration
	Global    time.Duration
	Sync      time.Duration
	Broadcast time.Duration
	// Recovery is fault-handling overhead: discarded work of crashed
	// nodes, failure-detection timeouts, and failed delivery attempts with
	// their backoff. Unlike the component fields it is summed over nodes —
	// it accounts total overhead, not a critical path — and sits outside
	// the paper's additive t_d + t_n + t_c decomposition. Zero on
	// fault-free runs. For a traced run it equals the collector's retry +
	// failover phase totals.
	Recovery time.Duration
	// Retries counts failed chunk-delivery attempts that were retried.
	Retries int
}

// Tdisk is the paper's data retrieval component t_d.
func (b PhaseBreakdown) Tdisk() time.Duration { return b.Retrieval + b.CachedFetch }

// Tnetwork is the paper's data communication component t_n.
func (b PhaseBreakdown) Tnetwork() time.Duration { return b.Delivery }

// Tcompute is the paper's data processing component t_c, which contains
// the serialized reduction-object communication and global reduction.
func (b PhaseBreakdown) Tcompute() time.Duration {
	return b.Compute + b.Gather + b.Global + b.Sync + b.Broadcast
}

// Tro is the reduction-object communication part of t_c (gather plus
// result broadcast).
func (b PhaseBreakdown) Tro() time.Duration { return b.Gather + b.Broadcast }

// Breakdown folds the phase accounting into the model's three components.
func (b PhaseBreakdown) Breakdown() core.Breakdown {
	return core.Breakdown{Tdisk: b.Tdisk(), Tnetwork: b.Tnetwork(), Tcompute: b.Tcompute()}
}

// Profile assembles the core.Profile the prediction framework consumes
// from the accumulated phase accounting.
func (b PhaseBreakdown) Profile(app string, cfg core.Config, roBytes, bcastBytes units.Bytes, iterations int) core.Profile {
	return core.Profile{
		App:            app,
		Config:         cfg,
		Breakdown:      b.Breakdown(),
		TdiskCached:    b.CachedFetch,
		Tro:            b.Tro(),
		Tglobal:        b.Global,
		ROBytesPerNode: roBytes,
		BroadcastBytes: bcastBytes,
		Iterations:     iterations,
	}
}

// Pipeline executes the canonical FREERIDE-G protocol through an
// Executor's stages, accumulating the PhaseBreakdown and emitting one
// structured Event per completed phase:
//
//	pass 0:    retrieval + delivery + local reduction (synchronous chunk
//	           rounds on the backends that model flow control);
//	passes 1+: cached fetch + local reduction;
//	each pass: serialized reduction-object gather at the master, global
//	           reduction, per-pass coordination, result broadcast.
//
// Both backends — the simulated grid and the goroutine backend at every
// thread count — run through this one implementation, so they provably
// execute the same protocol with the same accounting.
type Pipeline struct {
	exec       Executor
	run        RunInfo
	sink       Sink
	bd         PhaseBreakdown
	iterations int
}

// NewPipeline builds a pipeline over an executor. sink may be nil.
func NewPipeline(exec Executor, run RunInfo, sink Sink) *Pipeline {
	return &Pipeline{exec: exec, run: run, sink: sink}
}

// Breakdown returns the phase accounting accumulated by Run.
func (pl *Pipeline) Breakdown() PhaseBreakdown { return pl.bd }

// Iterations reports the number of passes Run performed.
func (pl *Pipeline) Iterations() int { return pl.iterations }

// emitPhase records a completed phase: its duration enters the breakdown
// via the caller; the event timestamps the completion.
func (pl *Pipeline) emitPhase(pass int, ph Phase, dur time.Duration, detail string) {
	if pl.sink != nil {
		pl.sink.Emit(Event{At: pl.exec.Now(), Pass: pass, Phase: ph, Node: -1, Dur: dur, Detail: detail})
	}
}

// Run executes the protocol for up to run.Passes passes. The accumulated
// breakdown and the number of passes performed are available afterwards
// from Breakdown and Iterations. Event details are formatted only when a
// sink listens.
func (pl *Pipeline) Run() error {
	run := pl.run
	var gathered, workers string // the per-pass gather and broadcast details
	if pl.sink != nil {
		gathered = fmt.Sprintf("%d reduction objects", run.Compute-1)
		workers = fmt.Sprintf("%d workers", run.Compute-1)
		pl.sink.Emit(Event{
			At: pl.exec.Now(), Pass: -1, Phase: PhaseRunStart, Node: -1,
			Detail: fmt.Sprintf("run=%s backend=%s data=%d compute=%d passes=%d",
				run.Workload, run.Backend, run.Data, run.Compute, run.Passes),
		})
	}
	done := false
	for pass := 0; pass < run.Passes && !done; pass++ {
		pl.iterations++
		st, err := pl.exec.LocalReduction(pass)
		if err != nil {
			return fmt.Errorf("middleware: %s pass %d local reduction: %w", run.Backend, pass, err)
		}
		pl.bd.Retrieval += st.Retrieval
		pl.bd.Delivery += st.Delivery
		pl.bd.CachedFetch += st.CachedFetch
		pl.bd.Compute += st.Compute
		pl.bd.Recovery += st.Recovery
		pl.bd.Retries += st.Retries
		if pass == 0 {
			pl.emitPhase(pass, PhaseRetrieval, st.Retrieval, "")
			pl.emitPhase(pass, PhaseDelivery, st.Delivery, "")
		} else {
			// Later passes normally serve chunks from the caching tier, but
			// failover re-partitioning can force fresh repository fetches of
			// chunks a dead node had cached.
			if st.Retrieval > 0 {
				pl.emitPhase(pass, PhaseRetrieval, st.Retrieval, "failover re-fetch")
			}
			if st.Delivery > 0 {
				pl.emitPhase(pass, PhaseDelivery, st.Delivery, "failover re-fetch")
			}
			if st.CachedFetch > 0 {
				pl.emitPhase(pass, PhaseCachedFetch, st.CachedFetch, "")
			}
		}
		pl.emitPhase(pass, PhaseLocalReduce, st.Compute, "")

		gd, err := pl.exec.Gather(pass)
		if err != nil {
			return fmt.Errorf("middleware: %s pass %d gather: %w", run.Backend, pass, err)
		}
		pl.bd.Gather += gd
		pl.emitPhase(pass, PhaseGather, gd, gathered)

		gl, d, err := pl.exec.GlobalReduce(pass)
		if err != nil {
			return fmt.Errorf("middleware: %s pass %d global reduce: %w", run.Backend, pass, err)
		}
		done = d
		pl.bd.Global += gl
		pl.emitPhase(pass, PhaseGlobalReduce, gl, "")

		sy, err := pl.exec.Sync(pass)
		if err != nil {
			return fmt.Errorf("middleware: %s pass %d sync: %w", run.Backend, pass, err)
		}
		pl.bd.Sync += sy
		if sy > 0 {
			pl.emitPhase(pass, PhaseSync, sy, "")
		}

		bc, err := pl.exec.Broadcast(pass, done)
		if err != nil {
			return fmt.Errorf("middleware: %s pass %d broadcast: %w", run.Backend, pass, err)
		}
		pl.bd.Broadcast += bc
		pl.emitPhase(pass, PhaseBroadcast, bc, workers)
	}
	mwRuns.Inc()
	mwRetries.Add(float64(pl.bd.Retries))
	mwRecoverySeconds.Add(pl.bd.Recovery.Seconds())
	if pl.sink != nil {
		detail := fmt.Sprintf("run=%s passes=%d makespan=%v", run.Workload, pl.iterations, pl.exec.Now())
		if pl.bd.Retries > 0 || pl.bd.Recovery > 0 {
			detail += fmt.Sprintf(" retries=%d recovery=%v", pl.bd.Retries, pl.bd.Recovery)
		}
		pl.sink.Emit(Event{At: pl.exec.Now(), Pass: -1, Phase: PhaseRunEnd, Node: -1, Detail: detail})
	}
	return nil
}
