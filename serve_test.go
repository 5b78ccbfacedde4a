// Serve-plane oracles that need nothing but the exported surface: the
// differential test of a default server against the reference
// configuration, and the compile gate on the benchmark module.
package freerideg_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"freerideg/internal/bench"
	"freerideg/internal/fgservice"
	"freerideg/internal/units"
)

// serveOpGen draws serve-plane requests from a small seeded vocabulary:
// small enough that the default server's caches and rank tables are hit
// constantly, wide enough to reach every variant, the deadline and limit
// forms, and each per-item error class.
type serveOpGen struct{ rng *rand.Rand }

func (g serveOpGen) pick(options ...string) string { return options[g.rng.Intn(len(options))] }

// rarely returns bad about one time in sixteen, otherwise one of good.
func (g serveOpGen) rarely(bad string, good ...string) string {
	if g.rng.Intn(16) == 0 {
		return bad
	}
	return g.pick(good...)
}

func (g serveOpGen) app() string { return g.rarely("warpdrive", "kmeans", "em", "knn") }
func (g serveOpGen) variant() string {
	return g.rarely("psychic", "", "", "nocomm", "reduction", "global")
}

func (g serveOpGen) predictItem() string {
	data := 1 << g.rng.Intn(4)
	compute := data << g.rng.Intn(3)
	if g.rng.Intn(16) == 0 {
		compute = data / 2 // fewer compute than data nodes: invalid
	}
	return fmt.Sprintf(`{"app":%q,"variant":%q,"config":{"cluster":%q,"dataNodes":%d,"computeNodes":%d,"bandwidth":%q,"datasetBytes":%q}}`,
		g.app(), g.variant(), bench.PentiumCluster, data, compute,
		g.rarely("+InfMB", "25MB", "50MB", "100MB"), g.rarely("NaNGB", "64MB", "128MB", "512MB", "1.4GB"))
}

func (g serveOpGen) selectItem() string {
	return fmt.Sprintf(`{"app":%q,"size":%q,"limit":%d,"deadline":%q,"variant":%q}`,
		g.app(), g.rarely("not-a-size", "64MB", "128MB", "256MB"), g.rng.Intn(4),
		g.pick("", "", "", "10m", "1h", "1ns", "soon"), g.variant())
}

func (g serveOpGen) batch(item func() string) string {
	items := make([]string, 1+g.rng.Intn(8))
	for i := range items {
		items[i] = item()
	}
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// next returns one request. /observe is in the mix because it is what
// invalidates the one layer the two servers differ in, the /select
// response cache.
func (g serveOpGen) next() (path, body string) {
	switch k := g.rng.Intn(20); {
	case k < 6:
		return "/predict", g.predictItem()
	case k < 12:
		return "/select", g.selectItem()
	case k < 15:
		return "/predict/batch", g.batch(g.predictItem)
	case k < 18:
		return "/select/batch", g.batch(g.selectItem)
	}
	site := fgservice.DefaultSites()[g.rng.Intn(2)]
	return "/observe", fmt.Sprintf(`{"site":%q,"cluster":%q,"bytes":"%dMB","elapsed":"%dms"}`,
		site.Name, site.Cluster, 4+g.rng.Intn(60), 200+g.rng.Intn(2000))
}

// TestServePlaneMatchesReference is the differential oracle for the
// serve plane: a seeded request sequence is answered, op by op, by a
// default server and by the reference configuration (response cache off,
// tracing off). Statuses must be equal and bodies byte-identical once
// each response's own request ID is blanked — whatever the default
// server caches, pools or traces must never show in an answer.
func TestServePlaneMatchesReference(t *testing.T) {
	newServer := func(opts fgservice.Options) http.Handler {
		t.Helper()
		opts.BaseBytes = 8 * units.MB // keeps each app's self-profiling run short
		s, err := fgservice.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s.Handler()
	}
	def := newServer(fgservice.Options{})
	ref := newServer(fgservice.Options{DisableCache: true, TraceSample: -1})
	exchange := func(h http.Handler, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		id := rec.Header().Get("X-FG-Request-ID")
		if id == "" {
			t.Fatalf("%s answered without a request ID", path)
		}
		return rec.Code, bytes.ReplaceAll(rec.Body.Bytes(), []byte(id), nil)
	}

	const ops = 2400
	gen := serveOpGen{rng: rand.New(rand.NewSource(1))}
	statuses := make(map[int]int)
	for i := 0; i < ops; i++ {
		path, body := gen.next()
		ds, db := exchange(def, path, body)
		rs, rb := exchange(ref, path, body)
		if ds != rs || !bytes.Equal(db, rb) {
			t.Fatalf("op %d: POST %s %s\ndefault server: %d %s\nreference server: %d %s", i, path, body, ds, db, rs, rb)
		}
		statuses[ds]++
	}
	// The sequence must have reached the success path and each whole-request
	// error class it can generate, or agreement above proves little.
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity} {
		if statuses[code] == 0 {
			t.Errorf("no op of %d answered %d (statuses seen: %v)", ops, code, statuses)
		}
	}
}

// TestBenchmarkModuleCompiles vets the benchmark — a module of its own
// that imports this module's internal packages through a replace
// directive — under benchmark/run.sh's build environment, so an
// internal API change the benchmark cannot compile against fails the
// tier-1 tests instead of the next benchmark run.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a second module")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
