package grid

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/reqtrace"
)

// Rank-engine metrics: how much candidate enumeration and prediction
// work the incremental tables saved versus recomputed.
var (
	engineTables = metrics.GetGauge("fg_rank_engine_tables",
		"Candidate tables currently cached across all rank engines.")
	engineRebuilds = metrics.GetCounter("fg_rank_engine_rebuilds_total",
		"Candidate-table enumerations (first fill or topology change).")
	engineReused = metrics.GetCounter("fg_rank_engine_reused_total",
		"Candidate predictions served from a table without recomputation.")
	engineRecomputed = metrics.GetCounter("fg_rank_engine_recomputed_total",
		"Candidate predictions recomputed because an input changed.")
	engineEvictions = metrics.GetCounter("fg_rank_engine_evictions_total",
		"Candidate tables dropped by the engine's table bound.")
)

// maxEngineTables bounds one engine's cached candidate tables. The
// serve path keys tables by (dataset, variant), and datasets arrive
// from a finite request vocabulary, so the bound exists only to keep a
// hostile key stream from growing the engine without limit.
const maxEngineTables = 512

// tableKey identifies one cached candidate table: rankings differ by
// dataset and by prediction variant, so each pair gets its own table.
type tableKey struct {
	dataset string
	variant core.Variant
}

// rankTable caches one (dataset, variant)'s feasible candidate
// enumeration and the last prediction computed for each candidate,
// together with the inputs (predictor identity, per-pair bandwidth)
// those predictions were computed from.
type rankTable struct {
	mu sync.Mutex

	// svc and topo identify the topology the enumeration was built
	// from: a different Service value, a new offer, a replica
	// registration, or a bandwidth entry for a previously unknown path
	// all force re-enumeration.
	svc  *Service
	topo uint64

	// pred is the predictor the cached predictions were computed with.
	// Predictors are immutable once in use (the profile store builds a
	// fresh one per snapshot version), so pointer identity is the
	// invalidation signal; a recalibration yields a new pointer and
	// recomputes every pair.
	pred *core.Predictor

	// pairs holds the enumerated candidates in deterministic order
	// (replicas sorted by site × offers in registration order), with
	// pairs[i].Config.Bandwidth being the bandwidth input the cached
	// pairs[i].Prediction was computed from. ok[i] marks a valid cached
	// prediction (or cached prediction error in errs[i]).
	pairs []Candidate
	ok    []bool
	errs  []error

	// dirty is the reusable scratch list of pair indices to recompute.
	dirty []int
}

// RankEngine is the incremental ranking engine behind Selector.Rank and
// the prediction service's /select plane. It caches the feasible
// (replica, offer) candidate table per (dataset, variant) and, when
// ranking inputs move, recomputes only the predictions whose inputs
// actually changed:
//
//   - topology change (new offer, new replica, new bandwidth path, or a
//     different Service value) → re-enumerate the table;
//   - predictor change (a profile recalibration) → keep the table,
//     recompute every prediction;
//   - bandwidth change on some paths (a live estimator update) → keep
//     the table, recompute only the pairs on those paths;
//   - nothing changed → serve the cached predictions, allocation-free
//     except for the caller-owned result slice.
//
// Recomputation runs serially on the calling goroutine: a prediction is
// microseconds of arithmetic, and the serve plane's concurrency comes
// from concurrent requests, not from one round. An engine is safe for
// concurrent use; rounds for the same (dataset, variant) serialize on
// the table, rounds for different tables proceed independently.
type RankEngine struct {
	mu     sync.Mutex
	tables map[tableKey]*rankTable
}

// NewRankEngine returns an empty engine.
func NewRankEngine() *RankEngine {
	return &RankEngine{tables: make(map[tableKey]*rankTable)}
}

// table returns (or creates) the cached table for one key, enforcing
// the engine's table bound.
func (e *RankEngine) table(key tableKey) *rankTable {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[key]
	if !ok {
		if len(e.tables) >= maxEngineTables {
			for k := range e.tables {
				delete(e.tables, k)
				engineEvictions.Inc()
				engineTables.Add(-1)
				break
			}
		}
		t = &rankTable{}
		e.tables[key] = t
		engineTables.Add(1)
	}
	return t
}

// Rank returns the feasible (replica, offer) candidates for dataset
// sorted by ascending predicted execution time, exactly as a full
// serial re-evaluation would, but reusing every cached prediction whose
// inputs did not change since the previous round. The returned slice is
// owned by the caller. parallel is ignored: ranking is serial, and the
// argument stays only because the benchmark module calls Rank with it.
//
// ctx is checked before each candidate prediction: a canceled round stops
// recomputing and returns ctx.Err(). The table stays consistent — every
// pair whose recomputation was skipped remains marked dirty, so the
// next round recomputes exactly the predictions this one abandoned.
//
// The caller must not mutate svc concurrently with Rank (the same
// contract Service already has for readers).
func (e *RankEngine) Rank(ctx context.Context, svc *Service, dataset string, pred *core.Predictor, variant core.Variant, parallel int) ([]Candidate, error) {
	if pred == nil {
		return nil, errors.New("grid: selector without predictor")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// On a traced request the round records one span annotated with how
	// much of the table it reused; the note is only assembled when a
	// trace is listening, keeping the warm round's allocation profile
	// (result slice only) intact.
	sp := reqtrace.Child(ctx, "rank")
	defer sp.End()
	t := e.table(tableKey{dataset: dataset, variant: variant})
	t.mu.Lock()
	defer t.mu.Unlock()

	rebuilt := false
	topo := svc.TopologyVersion()
	if t.svc != svc || t.topo != topo {
		if err := t.enumerate(svc, dataset); err != nil {
			return nil, err
		}
		t.svc, t.topo = svc, topo
		rebuilt = true
	}
	if t.pred != pred {
		for i := range t.ok {
			t.ok[i] = false
		}
		t.pred = pred
	}

	rankRounds.Inc()
	rankCandidates.Add(float64(len(t.pairs)))

	// Refresh the bandwidth input of every pair and collect the ones
	// needing recomputation.
	t.dirty = t.dirty[:0]
	for i := range t.pairs {
		rep, off := &t.pairs[i].Replica, &t.pairs[i].Offer
		bw, known := svc.Bandwidth(rep.Site, off.Cluster)
		if !known {
			// A path can only disappear with a different Service value,
			// which re-enumerated above; defensively treat it as dirty
			// with the stale bandwidth kept.
			bw = t.pairs[i].Config.Bandwidth
		}
		if !t.ok[i] || bw != t.pairs[i].Config.Bandwidth {
			t.pairs[i].Config.Bandwidth = bw
			// Cleared before the recompute rather than inside it: a round
			// canceled mid-batch must not leave a prediction computed from
			// the previous bandwidth marked valid under the new one.
			t.ok[i] = false
			t.dirty = append(t.dirty, i)
		}
	}
	engineReused.Add(float64(len(t.pairs) - len(t.dirty)))
	engineRecomputed.Add(float64(len(t.dirty)))
	if sp.Traced() {
		note := "pairs=" + strconv.Itoa(len(t.pairs)) +
			" reused=" + strconv.Itoa(len(t.pairs)-len(t.dirty)) +
			" recomputed=" + strconv.Itoa(len(t.dirty))
		if rebuilt {
			note += " rebuilt"
		} else {
			note += " table-reused"
		}
		sp.Annotate(note)
	}

	for _, i := range t.dirty {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := t.pred.Predict(t.pairs[i].Config, variant)
		t.pairs[i].Prediction, t.errs[i] = p, err
		t.ok[i] = true
	}

	out := make([]Candidate, 0, len(t.pairs))
	var lastErr error
	for i := range t.pairs {
		if t.errs[i] != nil {
			lastErr = t.errs[i]
			continue
		}
		out = append(out, t.pairs[i])
	}
	if len(out) == 0 {
		if lastErr != nil {
			return nil, fmt.Errorf("%w (last prediction error: %v)", ErrNoCandidates, lastErr)
		}
		return nil, ErrNoCandidates
	}
	// SortStableFunc rather than sort.SliceStable: same ordering, but no
	// reflection, so a warm round's only allocation is the result slice.
	slices.SortStableFunc(out, func(a, b Candidate) int {
		ta, tb := a.Prediction.Texec(), b.Prediction.Texec()
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		default:
			return 0
		}
	})
	return out, nil
}

// enumerate rebuilds the feasible candidate table for dataset from svc,
// reusing the table's backing arrays. Every cached prediction is
// invalidated: the enumeration order may have changed.
func (t *rankTable) enumerate(svc *Service, dataset string) error {
	replicas := svc.Replicas.Replicas(dataset)
	if len(replicas) == 0 {
		return fmt.Errorf("grid: no replicas of dataset %q", dataset)
	}
	engineRebuilds.Inc()
	t.pairs = t.pairs[:0]
	for _, rep := range replicas {
		for _, off := range svc.offers {
			if off.Nodes < rep.StorageNodes {
				continue
			}
			bw, ok := svc.Bandwidth(rep.Site, off.Cluster)
			if !ok {
				continue
			}
			t.pairs = append(t.pairs, Candidate{Replica: rep, Offer: off, Config: core.Config{
				Cluster:      off.Cluster,
				DataNodes:    rep.StorageNodes,
				ComputeNodes: off.Nodes,
				Bandwidth:    bw,
				DatasetBytes: rep.Layout.Spec.TotalBytes,
			}})
		}
	}
	n := len(t.pairs)
	if cap(t.ok) < n {
		t.ok = make([]bool, n)
		t.errs = make([]error, n)
	} else {
		t.ok = t.ok[:n]
		t.errs = t.errs[:n]
	}
	for i := 0; i < n; i++ {
		t.ok[i] = false
		t.errs[i] = nil
	}
	// The predictions cached in pairs are stale relative to the fresh
	// enumeration; force a recompute by clearing the predictor pin.
	t.pred = nil
	return nil
}
