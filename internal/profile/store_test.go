package profile

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freerideg/internal/core"
	"freerideg/internal/units"
)

// truthProfile is the "real" behavior of the test application: the
// profile a perfectly calibrated store would hold.
func truthProfile() core.Profile {
	return core.Profile{
		App: "kmeans",
		Config: core.Config{
			Cluster:      "A",
			DataNodes:    1,
			ComputeNodes: 2,
			Bandwidth:    100 * units.MBPerSec,
			DatasetBytes: 100 * units.MB,
		},
		Breakdown: core.Breakdown{
			Tdisk:    10 * time.Second,
			Tnetwork: 20 * time.Second,
			Tcompute: 60 * time.Second,
		},
		Tro:            2 * time.Second,
		Tglobal:        time.Second,
		ROBytesPerNode: 100 * units.KB,
		BroadcastBytes: 10 * units.KB,
		Iterations:     5,
	}
}

// staleProfile is truthProfile with every component time tripled — the
// deliberately mis-scaled profile the closed-loop tests start from.
func staleProfile() core.Profile {
	p := truthProfile()
	p.Tdisk *= 3
	p.Tnetwork *= 3
	p.Tcompute *= 3
	p.Tro *= 3
	p.Tglobal *= 3
	return p
}

func testLinks() map[string]core.LinkCalibration {
	return map[string]core.LinkCalibration{
		"A": {W: 1e-8, L: 100 * time.Microsecond},
	}
}

func staleDoc() core.ProfileStore {
	return core.ProfileStore{Profiles: []core.Profile{staleProfile()}, Links: testLinks()}
}

// truthPredictor predicts what the application actually does.
func truthPredictor(t *testing.T) *core.Predictor {
	t.Helper()
	pred, err := core.NewPredictor(truthProfile(), core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range testLinks() {
		pred.Links[k] = v
	}
	return pred
}

// observeTruth simulates running the application on cfg by predicting it
// with the truth predictor and wrapping the result as an observation.
func observeTruth(t *testing.T, cfg core.Config) Observation {
	t.Helper()
	p, err := truthPredictor(t).Predict(cfg, core.GlobalReduction)
	if err != nil {
		t.Fatalf("truth prediction for %v: %v", cfg, err)
	}
	truth := truthProfile()
	return Observation{
		App:            truth.App,
		Config:         cfg,
		Breakdown:      p.Breakdown,
		Tro:            p.Tro,
		Tglobal:        p.Tglobal,
		ROBytesPerNode: truth.ROBytesPerNode,
		BroadcastBytes: truth.BroadcastBytes,
		Iterations:     truth.Iterations,
	}
}

func sampleConfigs() []core.Config {
	base := truthProfile().Config
	out := make([]core.Config, 0, 6)
	for i, s := range []units.Bytes{50 * units.MB, 150 * units.MB, 200 * units.MB,
		250 * units.MB, 300 * units.MB, 120 * units.MB} {
		cfg := base
		cfg.DatasetBytes = s
		cfg.ComputeNodes = 2 + i%3
		out = append(out, cfg)
	}
	return out
}

func TestNewStoreRejectsDuplicateApps(t *testing.T) {
	doc := core.ProfileStore{Profiles: []core.Profile{staleProfile(), staleProfile()}}
	if _, err := NewStore(doc, Options{}); err == nil {
		t.Fatal("NewStore accepted a document with duplicate apps")
	}
}

func TestNewStoreAllowsEmptyDocument(t *testing.T) {
	s, err := NewStore(core.ProfileStore{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Version() != 0 {
		t.Fatalf("empty store version = %d, want 0", snap.Version())
	}
	if len(snap.Apps()) != 0 {
		t.Fatalf("empty store has apps %v", snap.Apps())
	}
}

func TestIngestAdoptsUnknownApp(t *testing.T) {
	s, err := NewStore(core.ProfileStore{Links: testLinks()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := observeTruth(t, truthProfile().Config)
	res, err := s.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adopted {
		t.Fatal("first observation of an unknown app was not adopted")
	}
	if res.AppVersion != 1 || res.StoreVersion == 0 {
		t.Fatalf("adoption versions = app %d store %d, want app 1, store > 0", res.AppVersion, res.StoreVersion)
	}
	snap := s.Snapshot()
	p, ver, ok := snap.Find("kmeans")
	if !ok || ver != 1 {
		t.Fatalf("adopted profile lookup = ok=%v ver=%d", ok, ver)
	}
	if p.Texec() != obs.Texec() {
		t.Fatalf("adopted profile Texec = %v, want %v", p.Texec(), obs.Texec())
	}
	// A second observation of the now-known app is a plain sample.
	res, err = s.Ingest(observeTruth(t, sampleConfigs()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Adopted {
		t.Fatal("second observation re-adopted the app")
	}
	if res.Samples != 2 || res.Pending != 1 {
		t.Fatalf("after second ingest: samples=%d pending=%d, want 2/1", res.Samples, res.Pending)
	}
}

// TestAdoptKnownAppIsNoop: Adopt adopts only an unknown app. On a known
// one it must leave the profile, samples, drift and versions untouched,
// where Ingest would have counted a sample and pushed a drift error.
func TestAdoptKnownAppIsNoop(t *testing.T) {
	s, err := NewStore(core.ProfileStore{Links: testLinks()}, Options{DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Adopt(observeTruth(t, truthProfile().Config))
	if err != nil || !res.Adopted || res.Samples != 1 || res.AppVersion != 1 {
		t.Fatalf("Adopt of an unknown app = %+v, %v; want adopted at samples 1, version 1", res, err)
	}
	if _, err := s.Ingest(observeTruth(t, sampleConfigs()[0])); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	st0, _ := before.Status("kmeans")
	if st0.Samples != 2 || st0.DriftSamples != 1 {
		t.Fatalf("status before Adopt = %+v, want 2 samples and 1 drift sample", st0)
	}
	res, err = s.Adopt(observeTruth(t, sampleConfigs()[1]))
	if err != nil || res.Adopted {
		t.Fatalf("Adopt of a known app = %+v, %v; want a no-op", res, err)
	}
	after := s.Snapshot()
	st1, _ := after.Status("kmeans")
	p0, v0, _ := before.Find("kmeans")
	p1, v1, _ := after.Find("kmeans")
	if st1 != st0 || v1 != v0 || after.Version() != before.Version() || p1 != p0 {
		t.Fatalf("Adopt of a known app changed the store: status %+v -> %+v, app version %d -> %d, store version %d -> %d",
			st0, st1, v0, v1, before.Version(), after.Version())
	}
}

func TestIngestRejectsInvalidObservation(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	obs := observeTruth(t, truthProfile().Config)
	obs.Tcompute = -time.Second
	if _, err := s.Ingest(obs); err == nil {
		t.Fatal("Ingest accepted a negative component time")
	}
	obs = observeTruth(t, truthProfile().Config)
	obs.Config.Cluster = ""
	if _, err := s.Ingest(obs); err == nil {
		t.Fatal("Ingest accepted a config without cluster")
	}
}

func TestIngestFillsOptionalFieldsFromBaseProfile(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	obs := observeTruth(t, sampleConfigs()[0])
	obs.Iterations = 0
	obs.ROBytesPerNode = 0
	obs.BroadcastBytes = 0
	if _, err := s.Ingest(obs); err != nil {
		t.Fatalf("bare-breakdown observation rejected: %v", err)
	}
	s.mu.Lock()
	got := s.state["kmeans"].pending[0]
	s.mu.Unlock()
	base := staleProfile()
	if got.Iterations != base.Iterations || got.ROBytesPerNode != base.ROBytesPerNode ||
		got.BroadcastBytes != base.BroadcastBytes {
		t.Fatalf("fill = iters %d ro %v bcast %v, want base profile's %d/%v/%v",
			got.Iterations, got.ROBytesPerNode, got.BroadcastBytes,
			base.Iterations, base.ROBytesPerNode, base.BroadcastBytes)
	}
}

func TestVersionsAdvanceOnlyOnContentChange(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.Snapshot().Version()
	if v0 != 1 {
		t.Fatalf("initial store version = %d, want 1", v0)
	}
	res, err := s.Ingest(observeTruth(t, sampleConfigs()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreVersion != v0 || s.Snapshot().Version() != v0 {
		t.Fatalf("pure ingestion moved the store version: %d -> %d", v0, res.StoreVersion)
	}
	// But the status view still reflects the ingestion.
	st, ok := s.Snapshot().Status("kmeans")
	if !ok || st.Pending != 1 || st.Samples != 1 {
		t.Fatalf("status after ingest = %+v ok=%v", st, ok)
	}
}

func TestSeedLinksOnlyFillsAbsentClusters(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.Snapshot().Version()
	orig := testLinks()["A"]
	s.SeedLinks(map[string]core.LinkCalibration{
		"A": {W: 99, L: time.Hour},          // must not clobber the measured value
		"B": {W: 2e-8, L: time.Millisecond}, // absent: seeded
	})
	snap := s.Snapshot()
	if got := snap.Doc().Links["A"]; got != orig {
		t.Fatalf("SeedLinks clobbered measured calibration: %+v", got)
	}
	if got := snap.Doc().Links["B"]; got.W != 2e-8 {
		t.Fatalf("SeedLinks did not install absent cluster: %+v", got)
	}
	if snap.Version() <= v0 {
		t.Fatalf("seeding new links did not advance the version: %d", snap.Version())
	}
	// Seeding the same links again changes nothing.
	v1 := snap.Version()
	s.SeedLinks(map[string]core.LinkCalibration{"B": {W: 5, L: 0}})
	if got := s.Snapshot().Version(); got != v1 {
		t.Fatalf("no-op seeding advanced the version: %d -> %d", v1, got)
	}
}

func TestSnapshotIsCopyOnWrite(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	beforeDisk := before.Doc().Profiles[0].Tdisk
	for _, cfg := range sampleConfigs() {
		if _, err := s.Ingest(observeTruth(t, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Snapshot()
	if after.Version() <= before.Version() {
		t.Fatalf("recalibration did not advance the version: %d -> %d", before.Version(), after.Version())
	}
	// The old snapshot still serves the old document.
	if got := before.Doc().Profiles[0].Tdisk; got != beforeDisk {
		t.Fatalf("old snapshot mutated: Tdisk %v -> %v", beforeDisk, got)
	}
	if after.Doc().Profiles[0].Tdisk == beforeDisk {
		t.Fatal("new snapshot still has the stale profile")
	}
}

func TestFileBackedPersistenceSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	s, err := Create(path, staleDoc(), Options{MinSamples: 2, AutoPersist: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sampleConfigs() {
		if _, err := s.Ingest(observeTruth(t, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	_, appVer, _ := snap.Find("kmeans")
	if appVer < 2 {
		t.Fatalf("recalibration did not advance the app version: %d", appVer)
	}

	// A fresh store opened over the same file sees the same content and
	// versions.
	reopened, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsnap := reopened.Snapshot()
	if rsnap.Version() != snap.Version() {
		t.Fatalf("reopened store version = %d, want %d", rsnap.Version(), snap.Version())
	}
	rp, rv, ok := rsnap.Find("kmeans")
	if !ok || rv != appVer {
		t.Fatalf("reopened app version = %d ok=%v, want %d", rv, ok, appVer)
	}
	if want := snap.Doc().Profiles[0]; rp != want {
		t.Fatalf("reopened profile differs:\n got %+v\nwant %+v", rp, want)
	}

	// And the file is still readable as a plain core document.
	plain, err := core.LoadStore(path)
	if err != nil {
		t.Fatalf("core.LoadStore on a profile.Document file: %v", err)
	}
	if len(plain.Profiles) != 1 || plain.Profiles[0].App != "kmeans" {
		t.Fatalf("plain load content: %+v", plain)
	}
}

func TestReloadKeepsVersionsMonotonic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	s, err := Create(path, staleDoc(), Options{MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sampleConfigs() {
		if _, err := s.Ingest(observeTruth(t, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	memVer := s.Snapshot().Version()
	_, memAppVer, _ := s.Snapshot().Find("kmeans")
	if memVer < 2 || memAppVer < 2 {
		t.Fatalf("precondition: versions did not advance (store %d app %d)", memVer, memAppVer)
	}
	// The file still holds the version-1 creation state; an external edit
	// effectively rolled it back. Reload must not move versions backward.
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Version() < memVer {
		t.Fatalf("reload moved the store version backward: %d -> %d", memVer, snap.Version())
	}
	if _, v, _ := snap.Find("kmeans"); v < memAppVer {
		t.Fatalf("reload moved the app version backward: %d -> %d", memAppVer, v)
	}
	// But the content is the file's.
	if got := snap.Doc().Profiles[0]; got != staleProfile() {
		t.Fatalf("reload did not restore the file content: %+v", got)
	}
}

func TestInMemoryStoreRejectsPersist(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Persist(); !errors.Is(err, ErrNotFileBacked) {
		t.Fatalf("Persist on in-memory store = %v, want ErrNotFileBacked", err)
	}
	if err := s.Reload(); !errors.Is(err, ErrNotFileBacked) {
		t.Fatalf("Reload on in-memory store = %v, want ErrNotFileBacked", err)
	}
}

func TestWriteDocumentLeavesNoTempFilesBehind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	if _, err := Create(path, staleDoc(), Options{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".profiles-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}
}

// TestDamagedStoreFileLoadsNothing: a truncated or corrupt store file
// fails to load as a whole. Open returns no store, and Reload leaves the
// live store on the snapshot it already served.
func TestDamagedStoreFileLoadsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.json")
	s, err := Create(path, staleDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)/2] = 0 // a NUL is invalid anywhere in JSON
	negative := staleDoc()
	negative.Profiles[0].Tdisk = -time.Second
	invalid, err := json.Marshal(Document{ProfileStore: negative, Version: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"corrupt", corrupt},
		{"invalid profile", invalid},
	} {
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Open(path, Options{}); err == nil || got != nil {
			t.Errorf("%s: Open = %v, %v; want no store and an error", c.name, got, err)
		}
		before := s.Snapshot()
		if err := s.Reload(); err == nil {
			t.Errorf("%s: Reload accepted the damaged file", c.name)
		}
		if after := s.Snapshot(); after != before {
			t.Errorf("%s: a failed Reload published a new snapshot (version %d -> %d)", c.name, before.Version(), after.Version())
		}
	}
}

// TestSaveAsFailureLeavesNoTrace: a SaveAs whose rename fails (the
// target is an existing directory) reports the error, leaves the store's
// own file byte-identical and removes its temp file.
func TestSaveAsFailureLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profiles.json")
	s, err := Create(path, staleDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(observeTruth(t, sampleConfigs()[0])); err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dir, "taken")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveAs(target); err == nil {
		t.Fatal("SaveAs onto an existing directory succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the store's file changed under a failed SaveAs (read error %v)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".profiles-") {
			t.Errorf("temp file left behind: %s", e.Name())
		}
	}
}

func TestOpenPlainCoreStoreFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plain.json")
	if err := core.SaveStore(path, staleDoc()); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Version() != 1 {
		t.Fatalf("plain store adopted at version %d, want 1", snap.Version())
	}
	if _, v, ok := snap.Find("kmeans"); !ok || v != 1 {
		t.Fatalf("plain store app version = %d ok=%v, want 1", v, ok)
	}
}

func TestRecalibrateUnknownApp(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recalibrate("nope"); err == nil {
		t.Fatal("Recalibrate accepted an unknown app")
	}
}

func TestExplicitRecalibrateWithAutoDisabled(t *testing.T) {
	s, err := NewStore(staleDoc(), Options{MinSamples: 3, DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sampleConfigs() {
		res, err := s.Ingest(observeTruth(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if res.Recalibrated {
			t.Fatal("auto recalibration ran while disabled")
		}
	}
	changed, err := s.Recalibrate("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("explicit recalibration changed nothing")
	}
	st, _ := s.Snapshot().Status("kmeans")
	if st.Recalibrations != 1 || st.Pending != 0 {
		t.Fatalf("status after explicit recalibration: %+v", st)
	}
}

func TestLinkRefitRecoversInterconnectParameters(t *testing.T) {
	const (
		wTrue = 2e-8
		iters = 4
		nodes = 3
	)
	lTrue := 500 * time.Microsecond
	base := core.Profile{
		App: "apriori",
		Config: core.Config{Cluster: "A", DataNodes: 1, ComputeNodes: nodes,
			Bandwidth: 100 * units.MBPerSec, DatasetBytes: 100 * units.MB},
		Breakdown:      core.Breakdown{Tdisk: 5 * time.Second, Tnetwork: 5 * time.Second, Tcompute: 50 * time.Second},
		Tro:            time.Second,
		ROBytesPerNode: units.MB,
		BroadcastBytes: 0,
		Iterations:     iters,
	}
	doc := core.ProfileStore{
		Profiles: []core.Profile{base},
		Links:    map[string]core.LinkCalibration{"A": {W: 1e-9, L: time.Millisecond}},
	}
	s, err := NewStore(doc, Options{MinSamples: 4, DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Observed runs whose T_ro exactly matches the message-cost model
	// w·r + l over iterations × (c−1) × 2 messages, at varied sizes.
	cal := core.LinkCalibration{W: wTrue, L: lTrue}
	for _, ro := range []units.Bytes{units.MB, 2 * units.MB, 4 * units.MB, 8 * units.MB} {
		obs := Observation{
			App:            base.App,
			Config:         base.Config,
			Breakdown:      base.Breakdown,
			Tro:            time.Duration(iters*(nodes-1)) * (cal.MessageTime(ro) + cal.MessageTime(0)),
			ROBytesPerNode: ro,
			Iterations:     iters,
		}
		if _, err := s.Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if changed, err := s.Recalibrate(base.App); err != nil || !changed {
		t.Fatalf("recalibration changed=%v err=%v", changed, err)
	}
	got := s.Snapshot().Doc().Links["A"]
	if math.Abs(got.W-wTrue) > 1e-10 {
		t.Fatalf("refit W = %g, want %g", got.W, wTrue)
	}
	if math.Abs(got.L.Seconds()-lTrue.Seconds()) > 1e-5 {
		t.Fatalf("refit L = %v, want %v", got.L, lTrue)
	}
}

func TestScalingRefitFromCrossClusterRuns(t *testing.T) {
	want := core.Scaling{Disk: 2, Network: 0.5, Compute: 1.5}
	s, err := NewStore(staleDoc(), Options{MinSamples: 3, DisableAutoRecalibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	// Observed runs on cluster B behave like the stale profile's cluster-A
	// predictions, component-scaled by `want`.
	stalePred, err := core.NewPredictorFromStore(staleDoc(), "kmeans", core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range sampleConfigs()[:4] {
		p, err := stalePred.Predict(cfg, core.GlobalReduction)
		if err != nil {
			t.Fatal(err)
		}
		obs := Observation{
			App:    "kmeans",
			Config: cfg,
			Breakdown: core.Breakdown{
				Tdisk:    time.Duration(float64(p.Tdisk) * want.Disk),
				Tnetwork: time.Duration(float64(p.Tnetwork) * want.Network),
				Tcompute: time.Duration(float64(p.Tcompute) * want.Compute),
			},
			Tro:     time.Duration(float64(p.Tro) * want.Compute),
			Tglobal: time.Duration(float64(p.Tglobal) * want.Compute),
		}
		obs.Config.Cluster = "B"
		if _, err := s.Ingest(obs); err != nil {
			t.Fatal(err)
		}
	}
	if changed, err := s.Recalibrate("kmeans"); err != nil || !changed {
		t.Fatalf("recalibration changed=%v err=%v", changed, err)
	}
	got, ok := s.Snapshot().Doc().Scalings["B"]
	if !ok {
		t.Fatal("no scaling factors fitted for cluster B")
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"disk", got.Disk, want.Disk}, {"network", got.Network, want.Network}, {"compute", got.Compute, want.Compute}} {
		if math.Abs(c.got-c.want) > 0.02*c.want {
			t.Errorf("refit %s scaling = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestDriftRing(t *testing.T) {
	r := newDriftRing(3)
	if m, n := r.mean(); m != 0 || n != 0 {
		t.Fatalf("empty ring mean = %v/%d", m, n)
	}
	r.push(1)
	r.push(2)
	if m, n := r.mean(); m != 1.5 || n != 2 {
		t.Fatalf("partial ring mean = %v/%d, want 1.5/2", m, n)
	}
	r.push(3)
	r.push(10) // evicts the oldest sample (1)
	if m, n := r.mean(); m != 5 || n != 3 {
		t.Fatalf("wrapped ring mean = %v/%d, want 5/3", m, n)
	}
	r.reset()
	if m, n := r.mean(); m != 0 || n != 0 {
		t.Fatalf("reset ring mean = %v/%d", m, n)
	}
}
