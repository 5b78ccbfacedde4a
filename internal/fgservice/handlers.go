package fgservice

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"freerideg/internal/apps"
	"freerideg/internal/bench"
	"freerideg/internal/cliutil"
	"freerideg/internal/core"
	"freerideg/internal/grid"
	"freerideg/internal/metrics"
	"freerideg/internal/profile"
	"freerideg/internal/reqtrace"
	"freerideg/internal/units"
)

// ConfigRequest is the wire form of a target configuration. Sizes and
// rates are strings ("1.4GB", "100MB") parsed by units.ParseBytes — the
// input boundary where non-finite and overflowing values are rejected
// with 400 instead of poisoning a run.
type ConfigRequest struct {
	Cluster      string `json:"cluster"`
	DataNodes    int    `json:"dataNodes"`
	ComputeNodes int    `json:"computeNodes"`
	Bandwidth    string `json:"bandwidth"`
	DatasetBytes string `json:"datasetBytes"`
}

// Config parses the wire form into a core.Config (not yet validated).
func (c ConfigRequest) Config() (core.Config, error) {
	bw, err := cliutil.ParseRate(c.Bandwidth)
	if err != nil {
		return core.Config{}, fmt.Errorf("bandwidth: %w", err)
	}
	total, err := units.ParseBytes(c.DatasetBytes)
	if err != nil {
		return core.Config{}, fmt.Errorf("datasetBytes: %w", err)
	}
	return core.Config{
		Cluster:      c.Cluster,
		DataNodes:    c.DataNodes,
		ComputeNodes: c.ComputeNodes,
		Bandwidth:    bw,
		DatasetBytes: total,
	}, nil
}

// PredictRequest asks for one prediction of app on a target config.
type PredictRequest struct {
	App     string        `json:"app"`
	Variant string        `json:"variant,omitempty"`
	Config  ConfigRequest `json:"config"`
}

// PredictResponse is the component breakdown of one prediction.
// Durations are integer nanoseconds; Pretty is a human-readable summary.
// StoreVersion is the profile store snapshot the prediction was
// computed from — load harnesses use its monotonicity to prove a
// post-recalibration read never served a pre-recalibration answer.
type PredictResponse struct {
	App          string        `json:"app"`
	Variant      string        `json:"variant"`
	StoreVersion uint64        `json:"storeVersion"`
	Config       core.Config   `json:"config"`
	Tdisk        time.Duration `json:"tdiskNs"`
	Tnetwork     time.Duration `json:"tnetworkNs"`
	Tcompute     time.Duration `json:"tcomputeNs"`
	Tro          time.Duration `json:"troNs"`
	Tglobal      time.Duration `json:"tglobalNs"`
	Texec        time.Duration `json:"texecNs"`
	Pretty       string        `json:"pretty"`
}

// SelectRequest asks for a ranking of (replica, configuration) pairs for
// one dataset.
type SelectRequest struct {
	App  string `json:"app"`
	Size string `json:"size"`
	// Limit truncates the returned ranking (0 = all candidates).
	Limit int `json:"limit,omitempty"`
	// Deadline, when set (a Go duration string), switches to capacity
	// planning: the cheapest configuration meeting it instead of the
	// fastest overall.
	Deadline string `json:"deadline,omitempty"`
	Variant  string `json:"variant,omitempty"`
}

// SelectCandidate is one ranked (replica, configuration) pair.
type SelectCandidate struct {
	Site         string        `json:"site"`
	Cluster      string        `json:"cluster"`
	DataNodes    int           `json:"dataNodes"`
	ComputeNodes int           `json:"computeNodes"`
	Bandwidth    units.Rate    `json:"bandwidthBps"`
	Predicted    time.Duration `json:"predictedNs"`
	Pretty       string        `json:"pretty"`
}

// SelectResponse is the ranking (or the single planned candidate when a
// deadline was given). StoreVersion mirrors PredictResponse's coherence
// marker.
type SelectResponse struct {
	App          string            `json:"app"`
	Dataset      string            `json:"dataset"`
	StoreVersion uint64            `json:"storeVersion"`
	Size         units.Bytes       `json:"sizeBytes"`
	Candidates   []SelectCandidate `json:"candidates"`
	Selected     *SelectCandidate  `json:"selected,omitempty"`
}

// ObserveRequest feeds one completed transfer into the bandwidth
// estimator, updating the live b̂ for the site→cluster path.
type ObserveRequest struct {
	Site    string `json:"site"`
	Cluster string `json:"cluster"`
	Bytes   string `json:"bytes"`
	Elapsed string `json:"elapsed"` // Go duration string, e.g. "800ms"
}

// ObserveResponse reports the path's state after the observation.
type ObserveResponse struct {
	Site    string `json:"site"`
	Cluster string `json:"cluster"`
	Samples int    `json:"samples"`
	// Bandwidth is the path's current estimate ("" while the path has
	// too few samples to fit).
	Bandwidth string `json:"bandwidth,omitempty"`
}

// RunRequest posts one observed run — the configuration it executed on
// and its measured component breakdown — as a calibration sample.
// Durations are Go duration strings ("42s", "1m30s"); sizes are byte
// strings ("1MB"). Tro, Tglobal, RO/broadcast sizes, and iterations are
// optional (filled from the app's current base profile).
type RunRequest struct {
	App            string        `json:"app"`
	Config         ConfigRequest `json:"config"`
	Tdisk          string        `json:"tdisk"`
	Tnetwork       string        `json:"tnetwork"`
	Tcompute       string        `json:"tcompute"`
	TdiskCached    string        `json:"tdiskCached,omitempty"`
	Tro            string        `json:"tro,omitempty"`
	Tglobal        string        `json:"tglobal,omitempty"`
	ROBytesPerNode string        `json:"roBytesPerNode,omitempty"`
	BroadcastBytes string        `json:"broadcastBytes,omitempty"`
	Iterations     int           `json:"iterations,omitempty"`
}

// observation parses the wire form into a calibration sample.
func (r RunRequest) observation() (profile.Observation, error) {
	cfg, err := r.Config.Config()
	if err != nil {
		return profile.Observation{}, err
	}
	obs := profile.Observation{App: r.App, Config: cfg, Iterations: r.Iterations}
	for _, d := range []struct {
		name     string
		val      string
		dst      *time.Duration
		required bool
	}{
		{"tdisk", r.Tdisk, &obs.Tdisk, true},
		{"tnetwork", r.Tnetwork, &obs.Tnetwork, true},
		{"tcompute", r.Tcompute, &obs.Tcompute, true},
		{"tdiskCached", r.TdiskCached, &obs.TdiskCached, false},
		{"tro", r.Tro, &obs.Tro, false},
		{"tglobal", r.Tglobal, &obs.Tglobal, false},
	} {
		if d.val == "" {
			if d.required {
				return profile.Observation{}, fmt.Errorf("%s: required (a Go duration such as \"42s\")", d.name)
			}
			continue
		}
		v, err := time.ParseDuration(d.val)
		if err != nil {
			return profile.Observation{}, fmt.Errorf("%s %q: %v", d.name, d.val, err)
		}
		*d.dst = v
	}
	for _, b := range []struct {
		name string
		val  string
		dst  *units.Bytes
	}{
		{"roBytesPerNode", r.ROBytesPerNode, &obs.ROBytesPerNode},
		{"broadcastBytes", r.BroadcastBytes, &obs.BroadcastBytes},
	} {
		if b.val == "" {
			continue
		}
		v, err := units.ParseBytes(b.val)
		if err != nil {
			return profile.Observation{}, fmt.Errorf("%s: %w", b.name, err)
		}
		*b.dst = v
	}
	return obs, nil
}

// ProfileInfo is one application's live profile as reported by
// GET /profiles: the profile content plus its version and drift state.
type ProfileInfo struct {
	App            string        `json:"app"`
	Version        uint64        `json:"version"`
	Config         core.Config   `json:"config"`
	Texec          time.Duration `json:"texecNs"`
	Samples        int           `json:"samples"`
	Pending        int           `json:"pending"`
	Recalibrations int           `json:"recalibrations"`
	Drift          float64       `json:"drift"`
	DriftSamples   int           `json:"driftSamples"`
	Drifting       bool          `json:"drifting"`
}

// ProfilesResponse answers GET /profiles from one store snapshot.
type ProfilesResponse struct {
	StoreVersion uint64        `json:"storeVersion"`
	Profiles     []ProfileInfo `json:"profiles"`
}

// HealthResponse answers /healthz. Status is "ok" (200) or "degraded"
// (503, with Reason saying why): a draining server or a saturated
// concurrency limiter is still alive but should not receive new work,
// and load harnesses need to tell that apart from a crash.
type HealthResponse struct {
	Status        string   `json:"status"`
	Reason        string   `json:"reason,omitempty"`
	UptimeSeconds float64  `json:"uptimeSeconds"`
	Apps          []string `json:"apps"`
	ProfiledApps  int      `json:"profiledApps"`
	StoreVersion  uint64   `json:"storeVersion"`
}

// apiError is the JSON error envelope every handler uses: the message,
// the HTTP status it rode in on (so callers and the load harness can
// classify failures without re-parsing transport state), and the
// request ID — the same value as the X-FG-Request-ID response header —
// so a client-reported failure is matchable to server-side traces and
// slow-request logs.
type apiError struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"requestId,omitempty"`
}

// encodeFailures counts responses whose JSON encoding failed — the
// errors the old writeJSON silently dropped. An encode failure is a
// server bug (every response type here is a plain struct), so it is
// worth a counter and a 500 rather than a truncated 200.
var encodeFailures = metrics.GetCounter("fg_http_encode_failures_total",
	"Responses dropped because JSON encoding of the response value failed.")

// encodeState is one pooled response-rendering unit: a buffer plus an
// encoder permanently bound to it, so the serve hot path allocates no
// encoder or buffer per request. States whose buffer ballooned (an
// unusually large ranking) are not returned to the pool.
type encodeState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encodeStates = sync.Pool{New: func() any {
	st := new(encodeState)
	// Encoder+SetIndent (not MarshalIndent) keeps the historical wire
	// bytes: two-space indent and a trailing newline.
	st.enc = json.NewEncoder(&st.buf)
	st.enc.SetIndent("", "  ")
	return st
}}

const maxPooledEncodeBuf = 64 << 10

// writeJSON renders v into a pooled buffer, writes it with a correct
// Content-Length, and returns the status written. Encoding errors are
// counted and turn into a 500 error envelope instead of being silently
// dropped mid-stream — possible because nothing has been written to w
// before the buffer is complete.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	st := encodeStates.Get().(*encodeState)
	defer func() {
		if st.buf.Cap() <= maxPooledEncodeBuf {
			encodeStates.Put(st)
		}
	}()
	st.buf.Reset()
	if err := st.enc.Encode(v); err != nil {
		encodeFailures.Inc()
		st.buf.Reset()
		fmt.Fprintf(&st.buf, "{\n  \"error\": %q,\n  \"status\": 500\n}\n",
			"encoding response: "+err.Error())
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(st.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(st.buf.Bytes())
	return status
}

// writeError renders the error envelope and returns the status written.
// The request ID comes from the response header route stamped before
// anything else ran, so every envelope — 405, 503, 499 and 504 included
// — correlates.
func writeError(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, apiError{
		Error:     err.Error(),
		Status:    status,
		RequestID: w.Header().Get(reqtrace.Header),
	})
}

// statusError carries the HTTP status a failure maps to, so a typed
// endpoint function reports validation, lookup and computation failures
// through its one error result without flattening 400/404/422
// distinctions into 500s.
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func withStatus(status int, err error) error {
	return &statusError{status: status, err: err}
}

// StatusClientClosedRequest is the non-standard 499 status (the nginx
// convention) a request answers when its client disconnected before the
// response was ready. The body never reaches that client; the status
// exists so metrics, logs, and batch per-item errors can tell "the
// caller left" apart from "the work failed" and from a 504 deadline.
const StatusClientClosedRequest = 499

// errorStatus maps a computation failure to its HTTP status. Context
// errors are classified first — a deadline that expired inside a
// statusError-wrapped path is still a 504, not whatever status the
// wrapping layer assumed for generic failure — then statusError's
// explicit code, falling back to 500.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.status
	}
	return http.StatusInternalServerError
}

// MaxRequestBody bounds every JSON request body. The largest legitimate
// request (a /runs observation) is under a kilobyte; a megabyte leaves
// three orders of magnitude of slack while keeping a misbehaving client
// from buffering unbounded input into the decoder.
const MaxRequestBody = 1 << 20

// decodeJSON strictly decodes one JSON request body: unknown fields are
// rejected, the body is capped at MaxRequestBody, and anything but
// whitespace after the first JSON value is an error. Every failure is a
// client error (400), never a 500.
func decodeJSON(ctx context.Context, w http.ResponseWriter, r *http.Request, v any) error {
	sp := reqtrace.Child(ctx, "decode")
	defer sp.End()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// The next token must be end of input. (dec.More would miss a
		// stray closer: it reports false at any '}' or ']'.)
		_, err = dec.Token()
		var syntax *json.SyntaxError
		switch {
		case err == io.EOF:
			return nil
		case err == nil, errors.As(err, &syntax):
			return errors.New("request body holds more than one JSON value")
		}
	}
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return fmt.Errorf("request body exceeds %d bytes", maxErr.Limit)
	}
	return fmt.Errorf("decoding request: %w", err)
}

// requestVariant resolves the request's variant override against the
// server default.
func (s *Server) requestVariant(name string) (core.Variant, error) {
	if name == "" {
		return s.variant, nil
	}
	return core.ParseVariant(name)
}

func badRequest(err error) error { return withStatus(http.StatusBadRequest, err) }

// predict is POST /predict and one /predict/batch item: validate, resolve
// the app's predictor (which may self-profile an unknown app), and run
// the prediction arithmetic. There is no response cache in front of it —
// the arithmetic is cheaper than a cache lookup. StoreVersion is the
// version of the snapshot the predictor was built from, so the answer's
// values are exactly that version's calibration.
func (s *Server) predict(ctx context.Context, req *PredictRequest) (PredictResponse, error) {
	v, err := s.requestVariant(req.Variant)
	if err != nil {
		return PredictResponse{}, badRequest(err)
	}
	cfg, err := req.Config.Config()
	if err != nil {
		return PredictResponse{}, badRequest(err)
	}
	if err := cfg.Validate(); err != nil {
		return PredictResponse{}, badRequest(err)
	}
	if _, err := apps.Get(req.App); err != nil {
		return PredictResponse{}, withStatus(http.StatusNotFound, err)
	}
	pred, ver, err := s.predictor(ctx, req.App)
	if err != nil {
		return PredictResponse{}, withStatus(http.StatusInternalServerError, err)
	}
	p, err := pred.Predict(cfg, v)
	if err != nil {
		return PredictResponse{}, withStatus(http.StatusUnprocessableEntity, err)
	}
	return PredictResponse{
		App:          req.App,
		Variant:      v.String(),
		StoreVersion: ver,
		Config:       cfg,
		Tdisk:        p.Tdisk,
		Tnetwork:     p.Tnetwork,
		Tcompute:     p.Tcompute,
		Tro:          p.Tro,
		Tglobal:      p.Tglobal,
		Texec:        p.Texec(),
		Pretty: fmt.Sprintf("t_d=%v t_n=%v t_c=%v (T_exec %v)",
			round(p.Tdisk), round(p.Tnetwork), round(p.Tcompute), round(p.Texec())),
	}, nil
}

// selectReplica is POST /select and one /select/batch item: validate,
// then serve the ranking through the response cache. A ranking depends
// on the profile store and on the live bandwidth estimator, so the cache
// version is the snapshot version plus the observation epoch (see
// Server.estEpoch for why the sum is sound). ctx bounds only this
// request's wait; a fill another request depends on is never canceled
// by it.
func (s *Server) selectReplica(ctx context.Context, req *SelectRequest) (SelectResponse, error) {
	v, err := s.requestVariant(req.Variant)
	if err != nil {
		return SelectResponse{}, badRequest(err)
	}
	total, err := units.ParseBytes(req.Size)
	if err != nil {
		return SelectResponse{}, badRequest(err)
	}
	var deadline time.Duration
	if req.Deadline != "" {
		deadline, err = time.ParseDuration(req.Deadline)
		if err != nil || deadline <= 0 {
			return SelectResponse{}, badRequest(fmt.Errorf("deadline %q: want a positive Go duration", req.Deadline))
		}
	}
	if _, err := apps.Get(req.App); err != nil {
		return SelectResponse{}, withStatus(http.StatusNotFound, err)
	}
	ver := s.store.Snapshot().Version()
	var resp SelectResponse
	if s.selectCache == nil {
		resp, err = s.computeSelect(ctx, req.App, v, total, deadline, ver)
	} else {
		resp, err = s.selectCache.Get(ctx, selectKey(req.App, v, total, deadline), ver+s.estEpoch.Load(),
			func(ctx context.Context) (SelectResponse, error) {
				return s.computeSelect(ctx, req.App, v, total, deadline, ver)
			})
	}
	if err != nil {
		return SelectResponse{}, err
	}
	// resp is a copy of the (possibly cached, shared) value; Limit
	// truncates only this request's view of the ranking.
	if req.Limit > 0 && req.Limit < len(resp.Candidates) {
		resp.Candidates = resp.Candidates[:req.Limit]
	}
	return resp, nil
}

// selectKey renders the cache key for one ranking. Limit is deliberately
// absent: the full ranking is cached once and truncated per request.
func selectKey(app string, v core.Variant, total units.Bytes, deadline time.Duration) string {
	return fmt.Sprintf("%s|%s|%d|%d", app, v, int64(total), int64(deadline))
}

// computeSelect is the cold path: resolve the dataset's persistent
// selection service, refresh its live bandwidths, and rank — or, with a
// deadline, capacity-plan — the candidates on the shared incremental
// rank engine. The per-dataset service mutex serializes refresh+rank,
// so the engine never sees a half-updated topology; the engine reuses
// every cached prediction whose bandwidth and predictor are unchanged.
func (s *Server) computeSelect(ctx context.Context, app string, v core.Variant, total units.Bytes, deadline time.Duration, ver uint64) (SelectResponse, error) {
	spec, err := bench.Dataset(app, total)
	if err != nil {
		return SelectResponse{}, badRequest(err)
	}
	// Ensures the app is profiled and in the store before ranking.
	if _, _, err := s.predictor(ctx, app); err != nil {
		return SelectResponse{}, withStatus(http.StatusInternalServerError, err)
	}
	// The cached source resolves the store's latest snapshot per ranking
	// round — a recalibration between requests re-ranks with fresh
	// profiles — while keeping the predictor pointer stable per version,
	// which is the engine's recompute-everything signal.
	pred, err := s.source(app).Predictor()
	if err != nil {
		return SelectResponse{}, withStatus(http.StatusInternalServerError, err)
	}
	ss, err := s.selectionService(spec)
	if err != nil {
		return SelectResponse{}, withStatus(http.StatusInternalServerError, err)
	}
	ss.mu.Lock()
	// Refresh bandwidths only when the estimator moved since the last
	// ranking: the epoch is loaded before the refresh, so a concurrent
	// /observe at worst re-triggers the refresh on the next request,
	// never lets a stale estimate survive one.
	if ep := s.estEpoch.Load() + 1; ss.bwEpoch != ep {
		bsp := reqtrace.Child(ctx, "bandwidth-refresh")
		for _, site := range s.opts.Sites {
			if err := ss.svc.SetBandwidth(site.Name, site.Cluster, s.pathBandwidth(site)); err != nil {
				ss.mu.Unlock()
				bsp.End()
				return SelectResponse{}, withStatus(http.StatusInternalServerError, err)
			}
		}
		ss.bwEpoch = ep
		bsp.End()
	}
	ranked, err := s.engine.Rank(ctx, ss.svc, spec.Name, pred, v, 1)
	ss.mu.Unlock()
	if err != nil {
		return SelectResponse{}, withStatus(statusForRankError(err), err)
	}
	resp := SelectResponse{App: app, Dataset: spec.Name, StoreVersion: ver, Size: total}
	if deadline > 0 {
		cand, err := grid.PlanFromRanked(ranked, deadline)
		if err != nil {
			return SelectResponse{}, withStatus(statusForRankError(err), err)
		}
		c := toCandidate(cand)
		resp.Selected = &c
		resp.Candidates = []SelectCandidate{c}
		return resp, nil
	}
	resp.Candidates = make([]SelectCandidate, len(ranked))
	for i, cand := range ranked {
		resp.Candidates[i] = toCandidate(cand)
	}
	best := resp.Candidates[0]
	resp.Selected = &best
	return resp, nil
}

// observe is POST /observe: feed one transfer sample into the bandwidth
// estimator and report the path's state after it.
func (s *Server) observe(_ context.Context, req *ObserveRequest) (ObserveResponse, error) {
	if req.Site == "" || req.Cluster == "" {
		return ObserveResponse{}, badRequest(errors.New("observe: site and cluster are required"))
	}
	b, err := units.ParseBytes(req.Bytes)
	if err != nil {
		return ObserveResponse{}, badRequest(err)
	}
	elapsed, err := time.ParseDuration(req.Elapsed)
	if err != nil {
		return ObserveResponse{}, badRequest(fmt.Errorf("elapsed %q: %v", req.Elapsed, err))
	}
	if err := s.est.Observe(req.Site, req.Cluster, grid.TransferSample{Bytes: b, Elapsed: elapsed}); err != nil {
		return ObserveResponse{}, badRequest(err)
	}
	// The estimator's state feeds selection bandwidths: bump the epoch so
	// cached rankings computed before this observation stop matching.
	s.estEpoch.Add(1)
	resp := ObserveResponse{
		Site:    req.Site,
		Cluster: req.Cluster,
		Samples: s.est.Samples(req.Site, req.Cluster),
	}
	if bw, _, err := s.est.Estimate(req.Site, req.Cluster); err == nil {
		resp.Bandwidth = bw.String()
	}
	return resp, nil
}

// runs is POST /runs: ingest one observed run as a calibration sample.
// Drift is tracked against the current prediction, and enough
// mis-predicted runs trigger a recalibration (reported in the response).
func (s *Server) runs(_ context.Context, req *RunRequest) (profile.IngestResult, error) {
	if req.App == "" {
		return profile.IngestResult{}, badRequest(errors.New("runs: app is required"))
	}
	obs, err := req.observation()
	if err != nil {
		return profile.IngestResult{}, badRequest(err)
	}
	res, err := s.store.Ingest(obs)
	if err != nil {
		return profile.IngestResult{}, badRequest(err)
	}
	return res, nil
}

// profiles is GET /profiles: every profile with its version, accumulated
// samples, and drift state, from one consistent snapshot.
func (s *Server) profiles(_ context.Context, w http.ResponseWriter, _ *http.Request) int {
	snap := s.store.Snapshot()
	resp := ProfilesResponse{
		StoreVersion: snap.Version(),
		Profiles:     make([]ProfileInfo, 0, len(snap.Apps())),
	}
	for _, app := range snap.Apps() {
		p, ver, _ := snap.Find(app)
		info := ProfileInfo{App: app, Version: ver, Config: p.Config, Texec: p.Texec()}
		if st, ok := snap.Status(app); ok {
			info.Samples = st.Samples
			info.Pending = st.Pending
			info.Recalibrations = st.Recalibrations
			info.Drift = st.Drift
			info.DriftSamples = st.DriftSamples
			info.Drifting = st.Drifting
		}
		resp.Profiles = append(resp.Profiles, info)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// healthz is GET /healthz. A degraded answer is a 503 carrying the same
// HealthResponse body, not an error envelope.
func (s *Server) healthz(_ context.Context, w http.ResponseWriter, _ *http.Request) int {
	s.mu.Lock()
	profiled := len(s.preds)
	s.mu.Unlock()
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Apps:          apps.Names(),
		ProfiledApps:  profiled,
		StoreVersion:  s.store.Snapshot().Version(),
	}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status, code = "degraded", http.StatusServiceUnavailable
		resp.Reason = "draining: shutdown in progress, in-flight requests are completing"
	case s.lim.saturated():
		resp.Status, code = "degraded", http.StatusServiceUnavailable
		resp.Reason = "overloaded: concurrency limiter saturated, requests are being shed with 503"
	}
	return writeJSON(w, code, resp)
}

// debugRequests is GET /debug/requests, the completed-trace ring: recent
// requests, the slowest since startup, and the most recent errored ones,
// each with its full span tree (see reqtrace.RingSnapshot for the
// schema).
func (s *Server) debugRequests(_ context.Context, w http.ResponseWriter, _ *http.Request) int {
	return writeJSON(w, http.StatusOK, s.traceRing.Snapshot())
}

// Handler assembles the service mux: the endpoint table, every entry
// behind the same route pipeline, plus the metrics exposition. The
// bounded endpoints are typed functions; a batch endpoint is its
// singular function lifted by batchOf.
func (s *Server) Handler() http.Handler {
	const get, post = http.MethodGet, http.MethodPost
	mux := http.NewServeMux()
	for _, e := range []struct {
		path, method string
		lim          *limiter
		do           step
	}{
		{"/predict", post, s.lim, endpoint(s.predict)},
		{"/predict/batch", post, s.lim, endpoint(batchOf(s, s.predict))},
		{"/select", post, s.lim, endpoint(s.selectReplica)},
		{"/select/batch", post, s.lim, endpoint(batchOf(s, s.selectReplica))},
		{"/observe", post, s.lim, endpoint(s.observe)},
		{"/runs", post, s.lim, endpoint(s.runs)},
		{"/profiles", get, nil, s.profiles},
		{"/healthz", get, nil, s.healthz},
		{"/debug/requests", get, nil, s.debugRequests},
	} {
		mux.Handle(e.path, s.route(e.path, e.lim, e.method, e.do))
	}
	mux.Handle("/metrics", metrics.Default().Handler())
	return mux
}

func toCandidate(cand grid.Candidate) SelectCandidate {
	return SelectCandidate{
		Site:         cand.Replica.Site,
		Cluster:      cand.Config.Cluster,
		DataNodes:    cand.Config.DataNodes,
		ComputeNodes: cand.Config.ComputeNodes,
		Bandwidth:    cand.Config.Bandwidth,
		Predicted:    cand.Prediction.Texec(),
		Pretty: fmt.Sprintf("%s: %d storage / %d compute @ %v, predicted %v",
			cand.Replica.Site, cand.Config.DataNodes, cand.Config.ComputeNodes,
			cand.Config.Bandwidth, round(cand.Prediction.Texec())),
	}
}

// statusForRankError maps "no feasible candidate" and "deadline
// unreachable" to 422: the request was well-formed, the grid just has
// nothing that satisfies it.
func statusForRankError(err error) int {
	if errors.Is(err, grid.ErrNoCandidates) || errors.Is(err, grid.ErrDeadlineUnreachable) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
