package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"freerideg/internal/core"
)

// Document is the persisted form of a store, and the one format of the
// profile file: the plain core profile document plus the subsystem's
// versioning state. The extra fields are additive, so a plain
// core.ProfileStore file (no version keys) loads as a Document at
// version 1.
type Document struct {
	core.ProfileStore
	// Version is the store-wide monotonic content version.
	Version uint64 `json:"version,omitempty"`
	// AppVersions maps each app to its monotonic profile version.
	AppVersions map[string]uint64 `json:"appVersions,omitempty"`
}

// Snapshot is one immutable, consistent view of a store: the document
// plus per-app versions and live calibration status. Snapshots are
// copy-on-write — a snapshot taken before a recalibration keeps serving
// the old profiles while new requests see the new ones.
type Snapshot struct {
	version     uint64
	doc         core.ProfileStore
	appVersions map[string]uint64
	status      map[string]AppStatus
	preds       *predMemo
}

// predMemo holds the predictors built from one document content. Every
// snapshot publishing that content shares it, so a status-only publish
// (an ingest that did not recalibrate) keeps each predictor's pointer.
type predMemo struct {
	mu sync.Mutex
	m  map[predKey]*core.Predictor
}

type predKey struct {
	app   string
	model core.AppModel
}

// Version is the store-wide monotonic content version the snapshot
// captured.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Find returns the app's profile and profile version.
func (sn *Snapshot) Find(app string) (core.Profile, uint64, bool) {
	p, ok := sn.doc.Find(app)
	if !ok {
		return core.Profile{}, 0, false
	}
	return p, sn.appVersions[app], true
}

// Apps lists the snapshot's applications in document order.
func (sn *Snapshot) Apps() []string {
	out := make([]string, len(sn.doc.Profiles))
	for i, p := range sn.doc.Profiles {
		out[i] = p.App
	}
	return out
}

// Status reports an app's live calibration state.
func (sn *Snapshot) Status(app string) (AppStatus, bool) {
	st, ok := sn.status[app]
	return st, ok
}

// Doc returns the snapshot's profile document. The snapshot owns it;
// callers must treat it as read-only.
func (sn *Snapshot) Doc() core.ProfileStore { return sn.doc }

// Predictor builds a fresh predictor for one application from the
// snapshot, wiring in its link calibrations and scaling factors.
func (sn *Snapshot) Predictor(app string, m core.AppModel) (*core.Predictor, error) {
	return core.NewPredictorFromStore(sn.doc, app, m)
}

// Shared returns the snapshot's memoised predictor for (app, m): built
// on first use, the same pointer afterwards, and shared by every
// snapshot of the same content. A predictor is a pure function of the
// content, so the pointer moves exactly when the calibration does —
// the rank engine's recompute signal. Callers must treat it as
// read-only. Failed builds are not memoised.
func (sn *Snapshot) Shared(app string, m core.AppModel) (*core.Predictor, error) {
	k := predKey{app, m}
	sn.preds.mu.Lock()
	defer sn.preds.mu.Unlock()
	if p, ok := sn.preds.m[k]; ok {
		return p, nil
	}
	p, err := sn.Predictor(app, m)
	if err != nil {
		return nil, err
	}
	sn.preds.m[k] = p
	return p, nil
}

// appState is one application's accumulated runtime calibration state.
type appState struct {
	pending []Observation // samples since the last recalibration
	total   int
	recals  int
	drift   *driftRing
}

// Store is the live, versioned profile holder. All mutation happens
// under one mutex; readers take lock-free copy-on-write snapshots.
type Store struct {
	opts Options
	path string // "" for in-memory stores

	mu    sync.Mutex
	doc   core.ProfileStore // master copy, only touched under mu
	vers  map[string]uint64
	ver   uint64
	state map[string]*appState

	snap atomic.Pointer[Snapshot]
}

// NewStore builds an in-memory store over a document (which may be
// empty — a cold store grows by adoption).
func NewStore(doc core.ProfileStore, opts Options) (*Store, error) {
	return newStore(doc, nil, 0, "", opts)
}

// Open loads a file-backed store. The file holds either a Document
// (versions intact across restarts) or a plain core.ProfileStore
// (adopted at version 1).
func Open(path string, opts Options) (*Store, error) {
	doc, err := loadDocument(path)
	if err != nil {
		return nil, err
	}
	return newStore(doc.ProfileStore, doc.AppVersions, doc.Version, path, opts)
}

// Create builds a file-backed store over a starting document and
// immediately persists it.
func Create(path string, doc core.ProfileStore, opts Options) (*Store, error) {
	s, err := newStore(doc, nil, 0, path, opts)
	if err != nil {
		return nil, err
	}
	if err := s.Persist(); err != nil {
		return nil, err
	}
	return s, nil
}

func newStore(doc core.ProfileStore, vers map[string]uint64, ver uint64, path string, opts Options) (*Store, error) {
	if err := validateDoc(doc); err != nil {
		return nil, err
	}
	s := &Store{
		opts:  opts.withDefaults(),
		path:  path,
		doc:   copyDoc(doc),
		vers:  make(map[string]uint64, len(doc.Profiles)),
		ver:   ver,
		state: make(map[string]*appState),
	}
	for _, p := range doc.Profiles {
		v := vers[p.App]
		if v == 0 {
			v = 1
		}
		s.vers[p.App] = v
	}
	if s.ver == 0 && len(doc.Profiles) > 0 {
		s.ver = 1
	}
	s.publishLocked(true)
	return s, nil
}

// Snapshot returns the current copy-on-write view. It never blocks on
// ingestion or recalibration.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Path reports the backing file ("" for in-memory stores).
func (s *Store) Path() string { return s.path }

// stateFor returns (creating if needed) an app's runtime state.
func (s *Store) stateFor(app string) *appState {
	st, ok := s.state[app]
	if !ok {
		st = &appState{drift: newDriftRing(s.opts.DriftWindow)}
		s.state[app] = st
	}
	return st
}

// publishLocked rebuilds the lock-free snapshot. When the document
// content did not change, the previous snapshot's document copy and
// predictor memo are reused; only the status view is rebuilt.
func (s *Store) publishLocked(contentChanged bool) {
	prev := s.snap.Load()
	var doc core.ProfileStore
	var preds *predMemo
	if contentChanged || prev == nil {
		doc = copyDoc(s.doc)
		preds = &predMemo{m: make(map[predKey]*core.Predictor)}
	} else {
		doc, preds = prev.doc, prev.preds
	}
	vers := make(map[string]uint64, len(s.vers))
	for k, v := range s.vers {
		vers[k] = v
	}
	status := make(map[string]AppStatus, len(s.state))
	for app, st := range s.state {
		mean, n := st.drift.mean()
		status[app] = AppStatus{
			App:            app,
			Version:        s.vers[app],
			Samples:        st.total,
			Pending:        len(st.pending),
			Recalibrations: st.recals,
			Drift:          mean,
			DriftSamples:   n,
			Drifting:       s.driftingLocked(st),
		}
	}
	s.snap.Store(&Snapshot{
		version:     s.ver,
		doc:         doc,
		appVersions: vers,
		status:      status,
		preds:       preds,
	})
	storeVersion.Set(float64(s.ver))
}

// driftingLocked reports whether an app's drift window warrants a
// recalibration: a full-enough window whose mean error exceeds the
// threshold.
func (s *Store) driftingLocked(st *appState) bool {
	mean, n := st.drift.mean()
	return n >= s.opts.MinSamples && mean > s.opts.DriftThreshold
}

// SeedLinks installs link calibrations for clusters the document does
// not cover yet (measured calibrations win over seeds). Seeding is a
// content change and advances the store version when anything lands.
func (s *Store) SeedLinks(links map[string]core.LinkCalibration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for cl, cal := range links {
		if _, ok := s.doc.Links[cl]; ok {
			continue
		}
		if s.doc.Links == nil {
			s.doc.Links = make(map[string]core.LinkCalibration)
		}
		s.doc.Links[cl] = cal
		changed = true
	}
	if changed {
		s.ver++
		s.publishLocked(true)
	}
}

// Ingest accepts one observed run as a calibration sample. Unknown apps
// are adopted: the observation becomes their base profile. Known apps
// get a drift check against the current prediction, and — unless auto
// recalibration is disabled — a recalibration once enough samples are
// pending and the drift window flags the model.
func (s *Store) Ingest(obs Observation) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	base, known := s.doc.Find(obs.App)
	if !known {
		return s.adoptLocked(obs)
	}
	// Fill optional fields from the current base profile so wire-level
	// callers can post bare breakdowns.
	if obs.Iterations == 0 {
		obs.Iterations = base.Iterations
	}
	if obs.ROBytesPerNode == 0 {
		obs.ROBytesPerNode = base.ROBytesPerNode
	}
	if obs.BroadcastBytes == 0 {
		obs.BroadcastBytes = base.BroadcastBytes
	}
	if err := obs.Profile().Validate(); err != nil {
		return IngestResult{}, fmt.Errorf("profile: rejecting observation: %w", err)
	}

	st := s.stateFor(obs.App)
	res := IngestResult{App: obs.App}

	// Drift: how wrong is the current model about this run?
	if e, ok := s.driftErrorLocked(obs); ok {
		st.drift.push(e)
		mean, _ := st.drift.mean()
		driftGauge(obs.App).Set(mean)
	}
	st.pending = append(st.pending, obs)
	st.total++
	ingestedTotal.Inc()

	changed := false
	if !s.opts.DisableAutoRecalibrate &&
		len(st.pending) >= s.opts.MinSamples && s.driftingLocked(st) {
		changed = s.recalibrateLocked(obs.App)
		res.Recalibrated = changed
	}
	res.Samples = st.total
	s.finishMutationLocked(&res, obs.App, changed)
	return res, nil
}

// Adopt makes obs the base profile of an app the store does not know
// yet, as Ingest would. For a known app it is a no-op (samples, drift
// and versions stay untouched, and the result's Adopted is false), so
// concurrent first runs of one app adopt it exactly once.
func (s *Store) Adopt(obs Observation) (IngestResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.doc.Find(obs.App); known {
		return IngestResult{App: obs.App, AppVersion: s.vers[obs.App], StoreVersion: s.ver}, nil
	}
	return s.adoptLocked(obs)
}

// adoptLocked adopts an unknown app: the observation becomes its base
// profile at version 1.
func (s *Store) adoptLocked(obs Observation) (IngestResult, error) {
	if obs.Iterations == 0 {
		obs.Iterations = 1
	}
	p := obs.Profile()
	if err := p.Validate(); err != nil {
		return IngestResult{}, fmt.Errorf("profile: rejecting observation: %w", err)
	}
	st := s.stateFor(obs.App)
	s.doc.Profiles = append(s.doc.Profiles, p)
	s.vers[obs.App] = 1
	s.ver++
	st.total++
	adoptedTotal.Inc()
	ingestedTotal.Inc()
	res := IngestResult{App: obs.App, Adopted: true, Samples: st.total}
	s.finishMutationLocked(&res, obs.App, true)
	return res, nil
}

// finishMutationLocked fills the result's version/drift fields,
// publishes a fresh snapshot, and auto-persists content changes.
func (s *Store) finishMutationLocked(res *IngestResult, app string, contentChanged bool) {
	st := s.stateFor(app)
	res.Pending = len(st.pending)
	res.Drift, res.DriftSamples = st.drift.mean()
	res.Drifting = s.driftingLocked(st)
	res.AppVersion = s.vers[app]
	res.StoreVersion = s.ver
	s.publishLocked(contentChanged)
	if contentChanged && s.opts.AutoPersist && s.path != "" {
		// Persistence failure must not lose the in-memory update; the
		// next successful persist writes the same state.
		_ = s.persistLocked()
	}
}

// Recalibrate refits an app's calibrations from its pending samples
// regardless of the drift gate (the minimum-sample thresholds per refit
// group still apply). It reports whether store content changed.
func (s *Store) Recalibrate(app string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.doc.Find(app); !ok {
		return false, fmt.Errorf("profile: no profile for %q", app)
	}
	changed := s.recalibrateLocked(app)
	var res IngestResult
	s.finishMutationLocked(&res, app, changed)
	return changed, nil
}

// Observer returns a callback that ingests every observed profile into
// the store — the plug for bench.Harness.SetObserver, so a figure sweep
// doubles as a calibration corpus. Observations the store rejects
// (invalid profiles) are dropped; Ingest is concurrency-safe, so the
// callback may be invoked from a worker pool.
func (s *Store) Observer() func(core.Profile) {
	return func(p core.Profile) {
		_, _ = s.Ingest(FromProfile(p))
	}
}

// Persist writes the store to its backing file atomically
// (write-temp-rename in the target directory).
func (s *Store) Persist() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.persistLocked()
}

func (s *Store) persistLocked() error {
	if s.path == "" {
		return ErrNotFileBacked
	}
	return writeDocument(s.path, s.documentLocked())
}

// SaveAs writes the store's current content to an arbitrary path
// atomically, without rebinding the store.
func (s *Store) SaveAs(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeDocument(path, s.documentLocked())
}

func (s *Store) documentLocked() Document {
	vers := make(map[string]uint64, len(s.vers))
	for k, v := range s.vers {
		vers[k] = v
	}
	return Document{
		ProfileStore: copyDoc(s.doc),
		Version:      s.ver,
		AppVersions:  vers,
	}
}

// Reload re-reads the backing file and replaces the store's content.
// Versions never move backward: the in-memory version wins wherever it
// is ahead of the file (so watchers polling versions keep a monotonic
// view even across an external file edit). Runtime calibration state
// (pending samples, drift windows) is reset.
func (s *Store) Reload() error {
	if s.path == "" {
		return ErrNotFileBacked
	}
	doc, err := loadDocument(s.path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doc = copyDoc(doc.ProfileStore)
	vers := make(map[string]uint64, len(doc.ProfileStore.Profiles))
	for _, p := range doc.ProfileStore.Profiles {
		v := doc.AppVersions[p.App]
		if v == 0 {
			v = 1
		}
		if cur := s.vers[p.App]; cur > v {
			v = cur
		}
		vers[p.App] = v
	}
	s.vers = vers
	if doc.Version > s.ver {
		s.ver = doc.Version
	} else {
		s.ver++ // a reload that kept or lowered the file version is still a content change
	}
	s.state = make(map[string]*appState)
	s.publishLocked(true)
	return nil
}

// loadDocument reads and validates a Document (or plain
// core.ProfileStore) file.
func loadDocument(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return Document{}, fmt.Errorf("profile: decoding %s: %w", path, err)
	}
	if err := validateDoc(doc.ProfileStore); err != nil {
		return Document{}, fmt.Errorf("profile: %s: %w", path, err)
	}
	return doc, nil
}

// writeDocument writes a document atomically and durably: marshal, write
// and fsync a temp file in the destination directory, rename it over the
// target, fsync the directory. Readers never observe a partially written
// store, and after a crash the target holds the old document or the new
// one, never a torn or empty file.
func writeDocument(path string, doc Document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("profile: encoding store: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".profiles-*.json")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
