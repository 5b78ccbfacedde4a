package profile

import (
	"math"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/stats"
	"freerideg/internal/units"
)

// driftErrorLocked predicts an observed run's total time with the
// current snapshot's shared predictor — the one the serve plane answers
// with — and reports the relative error against the observation. The
// most structured variant that can be evaluated is used
// (GlobalReduction needs a link calibration for the run's cluster;
// cross-cluster runs need scaling factors), so a run no variant can
// predict contributes no drift signal.
func (s *Store) driftErrorLocked(obs Observation) (float64, bool) {
	pred, err := s.snap.Load().Shared(obs.App, s.modelFor(obs.App))
	if err != nil {
		return 0, false
	}
	for _, v := range []core.Variant{core.GlobalReduction, core.NoComm} {
		p, err := pred.Predict(obs.Config, v)
		if err != nil {
			continue
		}
		e := stats.RelError(obs.Texec().Seconds(), p.Texec().Seconds())
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return 0, false
		}
		return e, true
	}
	return 0, false
}

func (s *Store) modelFor(app string) core.AppModel {
	if s.opts.Lookup == nil {
		return core.AppModel{}
	}
	return s.opts.Lookup(app)
}

// componentRatios is one sample's observed/predicted ratio per model
// component — a measurement of s_d, s_n, s_c in the paper's Section 3.4
// sense, taken against the current base profile.
type componentRatios struct {
	disk, network, compute float64
}

// recalibrateLocked refits an app's calibrations from its pending
// samples, in three passes over the accumulated corpus:
//
//  1. Base-profile rebase: samples on the profile's own cluster yield
//     observed/predicted component ratios; the median ratio per
//     component (the paper's s_d/s_n/s_c machinery applied reflexively)
//     rescales the stale base profile's component times.
//  2. Cross-cluster scaling refit: samples on other clusters are
//     compared against the same configuration predicted on the base
//     cluster; the median component ratios become the cluster's
//     Scaling factors — exactly the paper's training-run refit.
//  3. Link refit: samples with serialized reduction-object traffic give
//     (mean message size, mean per-message time) points; a least-squares
//     line over them re-estimates the cluster's w and l.
//
// Each refit group needs MinSamples usable samples (the link fit needs
// two distinct message sizes). Pending samples are consumed — and the
// app and store versions advance — only when something changed.
func (s *Store) recalibrateLocked(app string) bool {
	st, ok := s.state[app]
	if !ok || len(st.pending) == 0 {
		return false
	}
	idx := -1
	for i := range s.doc.Profiles {
		if s.doc.Profiles[i].App == app {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	base := s.doc.Profiles[idx]
	model := s.modelFor(app)
	changed := false

	// Pass 1: rebase the profile from same-cluster samples.
	if rebased, ok := s.rebaseLocked(base, model, st.pending); ok {
		s.doc.Profiles[idx] = rebased
		base = rebased
		changed = true
	}

	// Pass 2: refit cross-cluster scaling factors.
	for cluster, sc := range s.refitScalings(base, model, st.pending) {
		if s.doc.Scalings == nil {
			s.doc.Scalings = make(map[string]core.Scaling)
		}
		s.doc.Scalings[cluster] = sc
		changed = true
	}

	// Pass 3: refit link calibrations from serialized RO traffic.
	for cluster, cal := range s.refitLinks(st.pending) {
		if s.doc.Links == nil {
			s.doc.Links = make(map[string]core.LinkCalibration)
		}
		s.doc.Links[cluster] = cal
		changed = true
	}

	if !changed {
		return false
	}
	st.pending = nil
	st.drift.reset()
	st.recals++
	driftGauge(app).Set(0)
	s.vers[app]++
	s.ver++
	recalTotal.Inc()
	return true
}

// sampleRatios predicts one sample's configuration mapped onto the base
// cluster and returns the observed/predicted component ratios. The
// richest evaluable variant is used, mirroring driftErrorLocked.
func (s *Store) sampleRatios(pred *core.Predictor, obs Observation) (componentRatios, bool) {
	cfg := obs.Config
	cfg.Cluster = pred.Profile.Config.Cluster
	for _, v := range []core.Variant{core.GlobalReduction, core.NoComm} {
		p, err := pred.Predict(cfg, v)
		if err != nil {
			continue
		}
		r := componentRatios{
			disk:    ratio(obs.Tdisk, p.Tdisk),
			network: ratio(obs.Tnetwork, p.Tnetwork),
			compute: ratio(obs.Tcompute, p.Tcompute),
		}
		if usable(r.disk) && usable(r.network) && usable(r.compute) {
			return r, true
		}
		return componentRatios{}, false
	}
	return componentRatios{}, false
}

func ratio(observed, predicted time.Duration) float64 {
	if predicted <= 0 {
		return math.NaN()
	}
	return observed.Seconds() / predicted.Seconds()
}

func usable(r float64) bool {
	return !math.IsNaN(r) && !math.IsInf(r, 0) && r > 0
}

// medianRatios folds per-sample component ratios into their medians.
// The median (not the mean) is what keeps one anomalous run — a
// congested transfer, a straggler pass — from dragging the whole
// recalibration.
func medianRatios(rs []componentRatios) (componentRatios, bool) {
	if len(rs) == 0 {
		return componentRatios{}, false
	}
	ds := make([]float64, len(rs))
	ns := make([]float64, len(rs))
	cs := make([]float64, len(rs))
	for i, r := range rs {
		ds[i], ns[i], cs[i] = r.disk, r.network, r.compute
	}
	d, err1 := stats.Quantile(ds, 0.5)
	n, err2 := stats.Quantile(ns, 0.5)
	c, err3 := stats.Quantile(cs, 0.5)
	if err1 != nil || err2 != nil || err3 != nil {
		return componentRatios{}, false
	}
	med := componentRatios{disk: d, network: n, compute: c}
	if !usable(med.disk) || !usable(med.network) || !usable(med.compute) {
		return componentRatios{}, false
	}
	return med, true
}

// rebaseLocked corrects the base profile's component times by the
// median observed/predicted ratio over same-cluster samples. Scaling
// Tro/Tglobal together with Tcompute and TdiskCached with Tdisk
// preserves the profile invariants (T_ro + T_g <= t_c, cached <= t_d).
func (s *Store) rebaseLocked(base core.Profile, model core.AppModel, samples []Observation) (core.Profile, bool) {
	pred, err := core.NewPredictor(base, model)
	if err != nil {
		return core.Profile{}, false
	}
	for k, v := range s.doc.Links {
		pred.Links[k] = v
	}
	var rs []componentRatios
	for _, obs := range samples {
		if obs.Config.Cluster != base.Config.Cluster {
			continue
		}
		if r, ok := s.sampleRatios(pred, obs); ok {
			rs = append(rs, r)
		}
	}
	if len(rs) < s.opts.MinSamples {
		return core.Profile{}, false
	}
	med, ok := medianRatios(rs)
	if !ok {
		return core.Profile{}, false
	}
	out := base
	out.Tdisk = scaleDur(base.Tdisk, med.disk)
	out.TdiskCached = scaleDur(base.TdiskCached, med.disk)
	out.Tnetwork = scaleDur(base.Tnetwork, med.network)
	out.Tcompute = scaleDur(base.Tcompute, med.compute)
	out.Tro = scaleDur(base.Tro, med.compute)
	out.Tglobal = scaleDur(base.Tglobal, med.compute)
	if err := out.Validate(); err != nil {
		return core.Profile{}, false
	}
	return out, true
}

// refitScalings computes fresh Scaling factors for every non-base
// cluster with enough usable samples.
func (s *Store) refitScalings(base core.Profile, model core.AppModel, samples []Observation) map[string]core.Scaling {
	pred, err := core.NewPredictor(base, model)
	if err != nil {
		return nil
	}
	for k, v := range s.doc.Links {
		pred.Links[k] = v
	}
	byCluster := make(map[string][]componentRatios)
	for _, obs := range samples {
		if obs.Config.Cluster == base.Config.Cluster {
			continue
		}
		if r, ok := s.sampleRatios(pred, obs); ok {
			byCluster[obs.Config.Cluster] = append(byCluster[obs.Config.Cluster], r)
		}
	}
	out := make(map[string]core.Scaling)
	for cluster, rs := range byCluster {
		if len(rs) < s.opts.MinSamples {
			continue
		}
		med, ok := medianRatios(rs)
		if !ok {
			continue
		}
		out[cluster] = core.Scaling{Disk: med.disk, Network: med.network, Compute: med.compute}
	}
	return out
}

// refitLinks re-estimates per-cluster interconnect parameters from
// observed serialized reduction-object traffic. Each multi-node sample
// contributes one (mean message size, mean per-message time) point:
// a pass gathers c−1 objects and re-broadcasts the result, so T_ro
// spreads over iterations × (c−1) × 2 messages. A least-squares line
// over the points recovers w (slope) and l (intercept), the same fit
// core.CalibrateLink performs with synthetic probes.
func (s *Store) refitLinks(samples []Observation) map[string]core.LinkCalibration {
	type point struct{ x, y float64 }
	byCluster := make(map[string][]point)
	for _, obs := range samples {
		c := obs.Config.ComputeNodes
		if c <= 1 || obs.Tro <= 0 || obs.Iterations < 1 {
			continue
		}
		msgs := float64(obs.Iterations) * float64(c-1) * 2
		x := float64(obs.ROBytesPerNode+obs.BroadcastBytes) / 2
		y := obs.Tro.Seconds() / msgs
		if x <= 0 || y <= 0 {
			continue
		}
		byCluster[obs.Config.Cluster] = append(byCluster[obs.Config.Cluster], point{x, y})
	}
	out := make(map[string]core.LinkCalibration)
	for cluster, pts := range byCluster {
		if len(pts) < s.opts.MinSamples {
			continue
		}
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.x, p.y
		}
		w, l, err := stats.LinFit(xs, ys)
		if err != nil || w < 0 {
			continue // identical message sizes or a nonsensical slope: keep the old calibration
		}
		if l < 0 {
			l = 0
		}
		out[cluster] = core.LinkCalibration{W: w, L: units.Seconds(l)}
	}
	return out
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return units.Seconds(d.Seconds() * f)
}

// Source adapts one application of the store to the grid selector's
// predictor-source hook: every ranking round resolves the latest
// snapshot's shared predictor, so recalibrations land in selection
// decisions without rebuilding selectors, and the pointer stays put
// while the content does.
type Source struct {
	store *Store
	app   string
	model core.AppModel
}

// NewSource returns a live predictor source for one app.
func (s *Store) NewSource(app string, m core.AppModel) *Source {
	return &Source{store: s, app: app, model: m}
}

// Predictor returns the current snapshot's shared predictor.
func (src *Source) Predictor() (*core.Predictor, error) {
	return src.store.Snapshot().Shared(src.app, src.model)
}
