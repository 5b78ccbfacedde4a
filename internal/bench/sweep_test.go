package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"freerideg/internal/core"
	"freerideg/internal/metrics"
	"freerideg/internal/middleware"
	"freerideg/internal/units"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, rewriting the file first
// under -update, and reports the first line that differs.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s deviates at line %d (run with -update to regenerate)\ngot:  %q\nwant: %q", path, i+1, g, w)
			return
		}
	}
}

// TestParallelRunAllMatchesSerial is the determinism gate for the sweep
// engine: a parallel RunAll must be byte-identical to a serial one —
// figures, cells, notes, and rendering — regardless of scheduling — and
// the serial rendering must match the whole paper pinned in
// testdata/figures.golden.
func TestParallelRunAllMatchesSerial(t *testing.T) {
	render := func(par int) ([]byte, []byte) {
		h, err := NewHarness()
		if err != nil {
			t.Fatal(err)
		}
		h.SetParallelism(par)
		figs, err := h.RunAll()
		if err != nil {
			t.Fatalf("RunAll with parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := RenderAll(&buf, figs); err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(figs)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), js
	}
	serialTxt, serialJSON := render(1)
	checkGolden(t, "figures.golden", serialTxt)
	parallelTxt, parallelJSON := render(8)
	if !bytes.Equal(serialTxt, parallelTxt) {
		t.Error("parallel RunAll rendered output differs from serial")
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Error("parallel RunAll JSON differs from serial")
	}
}

// TestSetParallelism checks the pool-bound accessors and the GOMAXPROCS
// default for non-positive values.
func TestSetParallelism(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	h.SetParallelism(3)
	if h.Parallelism() != 3 {
		t.Errorf("Parallelism() = %d, want 3", h.Parallelism())
	}
	h.SetParallelism(0)
	if h.Parallelism() < 1 {
		t.Errorf("Parallelism() = %d after SetParallelism(0), want >= 1", h.Parallelism())
	}
}

// TestSimCacheSingleFlight checks the memo cache's duplicate
// suppression: many concurrent requests for one key run the computation
// exactly once and all observe its result.
func TestSimCacheSingleFlight(t *testing.T) {
	c := newSimCache()
	key := simKey{app: "kmeans", total: units.MB, chunk: units.KB}
	var calls atomic.Int32
	want := middleware.SimResult{Makespan: 42}
	const callers = 16
	var wg sync.WaitGroup
	results := make([]middleware.SimResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.do(context.Background(), key, func() (middleware.SimResult, error) {
				calls.Add(1)
				return want, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("computation ran %d times, want 1", n)
	}
	for i, res := range results {
		if res != want {
			t.Errorf("caller %d got %+v, want %+v", i, res, want)
		}
	}
}

// TestSimCacheErrorNotMemoized checks that a failed computation is
// retried on the next request instead of being served from the cache.
func TestSimCacheErrorNotMemoized(t *testing.T) {
	c := newSimCache()
	key := simKey{app: "em"}
	boom := errors.New("boom")
	if _, err := c.do(context.Background(), key, func() (middleware.SimResult, error) {
		return middleware.SimResult{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first call error = %v, want boom", err)
	}
	want := middleware.SimResult{Makespan: 7}
	res, err := c.do(context.Background(), key, func() (middleware.SimResult, error) { return want, nil })
	if err != nil || res != want {
		t.Fatalf("retry after error = %+v, %v; want %+v, nil", res, err, want)
	}
}

// TestSimulateMemoizesAcrossSinkModes checks the publish path: a traced
// base-profile run makes the identical sink-less simulation free, and
// both report the same result.
func TestSimulateMemoizesAcrossSinkModes(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	total := 64 * units.MB
	cfg := core.Config{
		Cluster:      PentiumCluster,
		DataNodes:    1,
		ComputeNodes: 2,
		Bandwidth:    middleware.DefaultBandwidth,
		DatasetBytes: total,
	}
	col := middleware.NewCollector()
	traced, err := h.simulate(context.Background(), "kmeans", total, ChunkFor(total), cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	key := simKey{app: "kmeans", total: total, chunk: ChunkFor(total), cfg: cfg}
	h.cache.mu.Lock()
	_, published := h.cache.m[key]
	h.cache.mu.Unlock()
	if !published {
		t.Error("traced run did not publish its result to the cache")
	}
	cached, err := h.simulate(context.Background(), "kmeans", total, ChunkFor(total), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached != traced {
		t.Errorf("cached result %+v differs from traced run %+v", cached, traced)
	}
}

// TestRunAllSwitchCount pins the simulator's scheduling work for a cold
// serial sweep, summed over every simulation RunAll starts: the events
// taken off the calendar and the switches into simulated processes. Both
// counts are exact and do not depend on the host. Events move only when
// the middleware asks the engine for more or fewer calls: a worker that
// waits out each cached chunk on its own reads 1,871,607, and a data
// server that waits out a read and a send separately reads 1,243,026.
// Switches also move when the workers cut their calls into scripts at
// other points: a worker that makes every call itself, one switch per
// event, reads 1,025,915.
func TestRunAllSwitchCount(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	h.SetParallelism(1)
	events := metrics.GetCounter("fg_sim_events_total", "")
	switches := metrics.GetCounter("fg_sim_switches_total", "")
	ev0, sw0 := events.Value(), switches.Value()
	if _, err := h.RunAll(); err != nil {
		t.Fatal(err)
	}
	const wantEvents, wantSwitches = 1025915.0, 34512.0
	if got := events.Value() - ev0; got != wantEvents {
		t.Errorf("cold serial RunAll took %.0f calendar events, want %.0f", got, wantEvents)
	}
	if got := switches.Value() - sw0; got != wantSwitches {
		t.Errorf("cold serial RunAll made %.0f process switches, want %.0f", got, wantSwitches)
	}
}
