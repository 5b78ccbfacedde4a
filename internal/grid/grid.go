// Package grid implements the resource selection framework of the
// FREERIDE-G middleware (Sections 1–3 of the paper): given a dataset
// replicated at several repository sites and a set of candidate compute
// configurations, it enumerates the (replica, configuration) pairs,
// predicts each pair's execution time with the prediction framework, and
// picks the pair with the minimum predicted cost.
package grid

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"freerideg/internal/adr"
	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/units"
)

// Selection metrics: how many ranking rounds ran and how many candidate
// (replica, configuration) predictions they evaluated.
var (
	rankRounds = metrics.GetCounter("fg_grid_rank_total",
		"Selector.Rank invocations.")
	rankCandidates = metrics.GetCounter("fg_grid_rank_candidates_total",
		"Candidate (replica, configuration) predictions evaluated by Selector.Rank.")
)

// ComputeOffer is one compute configuration a grid information service
// reports as available.
type ComputeOffer struct {
	// Cluster names the hardware the nodes belong to.
	Cluster string
	// Nodes is the number of compute nodes offered.
	Nodes int
}

// Service is the grid information service the selection framework
// consults: dataset replicas, compute offers, and the measured bandwidth
// between repository sites and compute clusters.
type Service struct {
	Replicas  *adr.Registry
	offers    []ComputeOffer
	bandwidth map[[2]string]units.Rate
	// topo counts structural changes owned by the service itself: offers
	// added and bandwidth entries for previously unknown paths. Updating
	// an existing path's bandwidth is not structural — the rank engine
	// handles it incrementally per pair.
	topo uint64
}

// NewService returns an empty information service.
func NewService() *Service {
	return &Service{
		Replicas:  adr.NewRegistry(),
		bandwidth: make(map[[2]string]units.Rate),
	}
}

// AddOffer registers an available compute configuration.
func (s *Service) AddOffer(o ComputeOffer) error {
	if o.Cluster == "" || o.Nodes < 1 {
		return fmt.Errorf("grid: invalid compute offer %+v", o)
	}
	s.offers = append(s.offers, o)
	s.topo++
	return nil
}

// TopologyVersion is a monotonic fingerprint of the service's feasible
// candidate structure: it moves whenever an offer is added, a replica is
// registered, or a bandwidth entry appears for a new site→cluster path.
// Both terms are monotonic, so the sum can never repeat for a different
// structure. Updating an existing path's bandwidth does not move it.
func (s *Service) TopologyVersion() uint64 {
	return s.topo + s.Replicas.Version()
}

// Offers lists the registered compute offers.
func (s *Service) Offers() []ComputeOffer {
	return append([]ComputeOffer(nil), s.offers...)
}

// SetBandwidth records the measured bandwidth between a repository site
// and a compute cluster. (The paper notes that wide-area bandwidth
// estimation work, e.g. Vazhkudai & Schopf, slots in here.)
func (s *Service) SetBandwidth(site, cluster string, b units.Rate) error {
	if b <= 0 {
		return fmt.Errorf("grid: non-positive bandwidth %v for %s->%s", b, site, cluster)
	}
	key := [2]string{site, cluster}
	if _, known := s.bandwidth[key]; !known {
		// A new path can make pairs feasible that were not enumerated:
		// that is a structural change, unlike an update in place.
		s.topo++
	}
	s.bandwidth[key] = b
	return nil
}

// Bandwidth reports the recorded bandwidth between a site and a cluster.
func (s *Service) Bandwidth(site, cluster string) (units.Rate, bool) {
	b, ok := s.bandwidth[[2]string{site, cluster}]
	return b, ok
}

// Candidate is one (replica, compute configuration) pair with its
// predicted execution time.
type Candidate struct {
	Replica    adr.Replica
	Offer      ComputeOffer
	Config     core.Config
	Prediction core.Prediction
}

// PredictorSource supplies the predictor a ranking round should use.
// A live profile store (internal/profile) satisfies it: each round then
// sees the latest recalibrated snapshot, while a round in flight keeps
// the predictor it resolved.
type PredictorSource interface {
	Predictor() (*core.Predictor, error)
}

// Selector ranks candidates using an application's predictor. Ranking
// runs on a per-selector RankEngine, so repeated Rank calls against the
// same service reuse the enumerated candidate table and every
// prediction whose inputs did not change.
type Selector struct {
	// Predictor is seeded with the application's base profile, link
	// calibrations, and (for cross-cluster offers) scaling factors.
	Predictor *core.Predictor
	// Source, when set, is resolved at the start of every ranking round
	// and takes precedence over the pinned Predictor.
	Source PredictorSource
	// Variant selects the prediction model; the paper's most accurate is
	// GlobalReduction.
	Variant core.Variant

	engOnce sync.Once
	eng     *RankEngine
}

// Engine returns the selector's rank engine, creating it on first use.
func (s *Selector) Engine() *RankEngine {
	s.engOnce.Do(func() { s.eng = NewRankEngine() })
	return s.eng
}

// ErrNoCandidates is returned when no (replica, offer) pair is feasible.
var ErrNoCandidates = errors.New("grid: no feasible (replica, configuration) pair")

// Rank enumerates all feasible (replica, offer) pairs for a dataset and
// returns them sorted by ascending predicted execution time. A pair is
// feasible when the offer has at least as many compute nodes as the
// replica has storage nodes (the middleware's M >= N requirement), the
// site-to-cluster bandwidth is known, and the predictor covers the
// offer's cluster.
func (s *Selector) Rank(svc *Service, dataset string) ([]Candidate, error) {
	return s.RankCtx(context.Background(), svc, dataset)
}

// RankCtx is Rank under a caller-supplied context: the ranking checks
// ctx between candidate predictions and returns ctx.Err() once it is
// done, so a serve-path caller whose request was canceled or timed out
// stops burning prediction work mid-round.
func (s *Selector) RankCtx(ctx context.Context, svc *Service, dataset string) ([]Candidate, error) {
	pred := s.Predictor
	if s.Source != nil {
		var err error
		if pred, err = s.Source.Predictor(); err != nil {
			return nil, fmt.Errorf("grid: resolving predictor: %w", err)
		}
	}
	if pred == nil {
		return nil, errors.New("grid: selector without predictor")
	}
	return s.Engine().Rank(ctx, svc, dataset, pred, s.Variant, 1)
}

// rankSerial is the reference implementation Rank is pinned against: a
// full, strictly serial enumerate-and-predict round with no caching.
// The determinism test asserts the engine's output is byte-identical to
// this path under every invalidation pattern.
func rankSerial(svc *Service, dataset string, pred *core.Predictor, variant core.Variant) ([]Candidate, error) {
	replicas := svc.Replicas.Replicas(dataset)
	if len(replicas) == 0 {
		return nil, fmt.Errorf("grid: no replicas of dataset %q", dataset)
	}
	var pairs []Candidate
	for _, rep := range replicas {
		for _, off := range svc.Offers() {
			if off.Nodes < rep.StorageNodes {
				continue
			}
			bw, ok := svc.Bandwidth(rep.Site, off.Cluster)
			if !ok {
				continue
			}
			pairs = append(pairs, Candidate{Replica: rep, Offer: off, Config: core.Config{
				Cluster:      off.Cluster,
				DataNodes:    rep.StorageNodes,
				ComputeNodes: off.Nodes,
				Bandwidth:    bw,
				DatasetBytes: rep.Layout.Spec.TotalBytes,
			}})
		}
	}
	out := make([]Candidate, 0, len(pairs))
	var lastErr error
	for _, cand := range pairs {
		p, err := pred.Predict(cand.Config, variant)
		if err != nil {
			lastErr = err
			continue
		}
		cand.Prediction = p
		out = append(out, cand)
	}
	if len(out) == 0 {
		if lastErr != nil {
			return nil, fmt.Errorf("%w (last prediction error: %v)", ErrNoCandidates, lastErr)
		}
		return nil, ErrNoCandidates
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Prediction.Texec() < out[j].Prediction.Texec()
	})
	return out, nil
}

// Select returns the minimum-cost candidate.
func (s *Selector) Select(svc *Service, dataset string) (Candidate, error) {
	ranked, err := s.Rank(svc, dataset)
	if err != nil {
		return Candidate{}, err
	}
	return ranked[0], nil
}
