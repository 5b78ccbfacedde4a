package grid

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"freerideg/internal/adr"
	"freerideg/internal/core"
	"freerideg/internal/units"
)

// bigService builds the 48-pair service the engine tests rank: eight
// replica sites times six compute offers, all feasible.
func bigService(tb testing.TB) *Service {
	tb.Helper()
	svc := NewService()
	spec := testSpec()
	layout, err := adr.Partition(spec, 2, adr.RoundRobin)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		site := fmt.Sprintf("site%d", i)
		if err := svc.Replicas.Register(adr.Replica{Site: site, Cluster: "A", StorageNodes: 2, Layout: layout}); err != nil {
			tb.Fatal(err)
		}
		// Distinct bandwidths so the ranking has a meaningful order.
		if err := svc.SetBandwidth(site, "A", units.Rate(10+10*i)*units.MBPerSec); err != nil {
			tb.Fatal(err)
		}
	}
	for _, n := range []int{2, 4, 6, 8, 12, 16} {
		if err := svc.AddOffer(ComputeOffer{Cluster: "A", Nodes: n}); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

func bigSelector(tb testing.TB) *Selector {
	tb.Helper()
	pred, err := core.NewPredictor(testProfile(), core.AppModel{})
	if err != nil {
		tb.Fatal(err)
	}
	pred.Links["A"] = core.LinkCalibration{W: 1e-8, L: 0}
	return &Selector{Predictor: pred, Variant: core.GlobalReduction}
}

// rankEqual fails the test unless two rankings are identical in length,
// order, and every field of every candidate.
func rankEqual(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: ranked %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Replica.Site != want[i].Replica.Site ||
			got[i].Offer != want[i].Offer ||
			got[i].Config != want[i].Config ||
			got[i].Prediction != want[i].Prediction {
			t.Fatalf("%s: rank %d differs: got %s/%d @%v, want %s/%d @%v",
				label, i,
				got[i].Replica.Site, got[i].Offer.Nodes, got[i].Config.Bandwidth,
				want[i].Replica.Site, want[i].Offer.Nodes, want[i].Config.Bandwidth)
		}
	}
}

// TestEngineMatchesSerialUnderInvalidations is the determinism pin: the
// incremental engine's output must be identical to a full serial
// re-evaluation after every kind of input change — repeated rounds,
// bandwidth updates on a subset of paths, predictor replacement, new
// offers, and new replicas.
func TestEngineMatchesSerialUnderInvalidations(t *testing.T) {
	svc := bigService(t)
	sel := bigSelector(t)
	pred := sel.Predictor
	eng := NewRankEngine()

	check := func(label string) {
		t.Helper()
		got, err := eng.Rank(context.Background(), svc, "pts", pred, core.GlobalReduction, 0)
		if err != nil {
			t.Fatalf("%s: engine: %v", label, err)
		}
		want, err := rankSerial(svc, "pts", pred, core.GlobalReduction)
		if err != nil {
			t.Fatalf("%s: serial: %v", label, err)
		}
		rankEqual(t, label, got, want)
	}

	check("first fill")
	check("steady state")

	// Bandwidth update on one path: only its pairs may change.
	if err := svc.SetBandwidth("site3", "A", 5*units.MBPerSec); err != nil {
		t.Fatal(err)
	}
	check("bandwidth update")

	// Predictor replacement (what a recalibration does).
	pred2, err := core.NewPredictor(testProfile(), core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	pred2.Links["A"] = core.LinkCalibration{W: 2e-8, L: 0}
	pred = pred2
	check("predictor replacement")

	// Structural change: a new offer re-enumerates the table.
	if err := svc.AddOffer(ComputeOffer{Cluster: "A", Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	check("new offer")

	// Structural change: a new replica (with its bandwidth path).
	spec := testSpec()
	layout, err := adr.Partition(spec, 2, adr.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Replicas.Register(adr.Replica{Site: "site9", Cluster: "A", StorageNodes: 2, Layout: layout}); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetBandwidth("site9", "A", 33*units.MBPerSec); err != nil {
		t.Fatal(err)
	}
	check("new replica")
}

// TestEngineRecomputesOnlyChangedBandwidths pins the incremental
// contract: a steady-state round recomputes nothing, and a bandwidth
// change on one site recomputes exactly that site's pairs.
func TestEngineRecomputesOnlyChangedBandwidths(t *testing.T) {
	svc := bigService(t)
	sel := bigSelector(t)
	eng := NewRankEngine()

	rank := func() float64 {
		before := engineRecomputed.Value()
		if _, err := eng.Rank(context.Background(), svc, "pts", sel.Predictor, core.GlobalReduction, 1); err != nil {
			t.Fatal(err)
		}
		return engineRecomputed.Value() - before
	}

	if got := rank(); got != 48 {
		t.Fatalf("first fill recomputed %v predictions, want 48", got)
	}
	if got := rank(); got != 0 {
		t.Fatalf("steady-state round recomputed %v predictions, want 0", got)
	}
	// site2 is one of eight replicas; each site pairs with all six
	// offers, so exactly 6 predictions depend on its bandwidth.
	if err := svc.SetBandwidth("site2", "A", 7*units.MBPerSec); err != nil {
		t.Fatal(err)
	}
	if got := rank(); got != 6 {
		t.Fatalf("one-path bandwidth change recomputed %v predictions, want 6", got)
	}
	// Re-setting the same value changes nothing.
	if err := svc.SetBandwidth("site2", "A", 7*units.MBPerSec); err != nil {
		t.Fatal(err)
	}
	if got := rank(); got != 0 {
		t.Fatalf("no-op bandwidth write recomputed %v predictions, want 0", got)
	}
}

// TestEngineTablesAreIndependentPerVariant checks that rankings at
// different variants do not thrash one shared table.
func TestEngineTablesAreIndependentPerVariant(t *testing.T) {
	svc := bigService(t)
	sel := bigSelector(t)
	eng := NewRankEngine()
	for _, v := range []core.Variant{core.NoComm, core.ReductionComm, core.GlobalReduction} {
		if _, err := eng.Rank(context.Background(), svc, "pts", sel.Predictor, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := engineRecomputed.Value()
	for _, v := range []core.Variant{core.NoComm, core.ReductionComm, core.GlobalReduction} {
		if _, err := eng.Rank(context.Background(), svc, "pts", sel.Predictor, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	if moved := engineRecomputed.Value() - before; moved != 0 {
		t.Fatalf("alternating variants recomputed %v predictions, want 0 (per-variant tables)", moved)
	}
}

// TestEngineErrorCandidatesStayExcluded pins cached prediction errors:
// a pair that fails to predict is excluded round after round, and an
// all-failing grid keeps returning ErrNoCandidates.
func TestEngineErrorCandidatesStayExcluded(t *testing.T) {
	svc := bigService(t)
	// A predictor with no link calibration for cluster A fails the
	// GlobalReduction variant on every pair.
	pred, err := core.NewPredictor(testProfile(), core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewRankEngine()
	for round := 0; round < 2; round++ {
		if _, err := eng.Rank(context.Background(), svc, "pts", pred, core.GlobalReduction, 1); err == nil {
			t.Fatalf("round %d: all-failing grid ranked without error", round)
		}
	}
	// The same engine with a fixed predictor recovers.
	fixed, err := core.NewPredictor(testProfile(), core.AppModel{})
	if err != nil {
		t.Fatal(err)
	}
	fixed.Links["A"] = core.LinkCalibration{W: 1e-8, L: 0}
	ranked, err := eng.Rank(context.Background(), svc, "pts", fixed, core.GlobalReduction, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 48 {
		t.Fatalf("recovered engine ranked %d candidates, want 48", len(ranked))
	}
}

// TestSelectorRankWarmAllocs is the allocation regression gate for the
// serve hot path: a steady-state Rank (warm table, no input changes)
// must allocate only the caller-owned result slice — the per-round
// surplus over one baseline allocation must be zero. Differencing two
// AllocsPerRun readings cancels fixed costs the same way the simgrid
// gates do.
func TestSelectorRankWarmAllocs(t *testing.T) {
	svc := bigService(t)
	sel := bigSelector(t)
	if _, err := sel.Rank(svc, "pts"); err != nil { // warm the table
		t.Fatal(err)
	}
	perRank := testing.AllocsPerRun(200, func() {
		if _, err := sel.Rank(svc, "pts"); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation for the 48-candidate result slice; everything else
	// (enumeration, per-pair state) must be cached. The old
	// implementation allocated ~60 objects per round.
	if perRank > 1.0 {
		t.Errorf("warm Rank allocates %.1f objects per round, want <= 1 (result slice only)", perRank)
	}
}

// BenchmarkRankIncremental measures the three engine regimes on the
// 48-pair grid: a warm steady-state round, a round after one path's
// bandwidth changed (6 of 48 predictions recomputed), and the cold
// full-recompute round, against the serial reference.
func BenchmarkRankIncremental(b *testing.B) {
	b.Run("steady", func(b *testing.B) {
		svc := bigService(b)
		sel := bigSelector(b)
		if _, err := sel.Rank(svc, "pts"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sel.Rank(svc, "pts"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-path-changed", func(b *testing.B) {
		svc := bigService(b)
		sel := bigSelector(b)
		if _, err := sel.Rank(svc, "pts"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate between two rates so every round sees a change.
			rate := units.Rate(20+i%2) * units.MBPerSec
			if err := svc.SetBandwidth("site4", "A", rate); err != nil {
				b.Fatal(err)
			}
			if _, err := sel.Rank(svc, "pts"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial-reference", func(b *testing.B) {
		svc := bigService(b)
		sel := bigSelector(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rankSerial(svc, "pts", sel.Predictor, core.GlobalReduction); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestEngineTableBound checks the engine drops tables instead of
// growing without limit under a hostile dataset-name stream.
func TestEngineTableBound(t *testing.T) {
	svc := bigService(t)
	sel := bigSelector(t)
	spec := testSpec()
	eng := NewRankEngine()
	// Register many datasets and rank each once.
	for i := 0; i < maxEngineTables+32; i++ {
		name := fmt.Sprintf("ds-%d", i)
		s2 := spec
		s2.Name = name
		layout, err := adr.Partition(s2, 2, adr.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Replicas.Register(adr.Replica{Site: "site0", Cluster: "A", StorageNodes: 2, Layout: layout}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Rank(context.Background(), svc, name, sel.Predictor, core.GlobalReduction, 1); err != nil {
			t.Fatal(err)
		}
	}
	eng.mu.Lock()
	n := len(eng.tables)
	eng.mu.Unlock()
	if n > maxEngineTables {
		t.Fatalf("engine holds %d tables, want <= %d", n, maxEngineTables)
	}
}

// TestRankConcurrentCallers hammers one shared Selector from many
// goroutines (run under -race via make check): concurrent rounds on one
// table serialize on it, so every caller must get the same ranking.
func TestRankConcurrentCallers(t *testing.T) {
	svc := bigService(t)
	sel := bigSelector(t)
	want, err := sel.Rank(svc, "pts")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sel.Rank(svc, "pts")
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("concurrent Rank returned %d candidates, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i].Prediction != want[i].Prediction || got[i].Config != want[i].Config {
					t.Errorf("concurrent Rank diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSelectorRank measures ranking the 48-pair grid through a
// Selector.
func BenchmarkSelectorRank(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		svc := bigService(b)
		sel := bigSelector(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sel.Rank(svc, "pts"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
