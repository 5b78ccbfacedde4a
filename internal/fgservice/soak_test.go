package fgservice

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/core"
	"freerideg/internal/profile"
	"freerideg/internal/units"
)

// The serve plane's two soaks: seeded, self-contained tests that drive
// Server.Handler() from concurrent readers, meant to run under -race
// (scripts/check.sh runs this package twice in one process).
// TestCoherenceSoak interleaves drift-driven recalibrations with the
// reads and checks the values served, not only the versions they carry;
// TestCancellationSoak abandons requests under tight client deadlines
// and checks every goroutine drains afterwards.

// soakCfg is the calibration configuration: the writer's drifted runs
// land on it, and half the generated predictions ask for it.
var soakCfg = ConfigRequest{Cluster: bench.PentiumCluster, DataNodes: 1, ComputeNodes: 2,
	Bandwidth: "100MB", DatasetBytes: "512MB"}

var (
	soakVariants = []string{"", "nocomm", "reduction", "global"}
	soakSizes    = []string{"256MB", "512MB", "1GB"}
)

// soakOp is one pre-generated request. sel holds a /select request, or
// a /select/batch request's items in order: a SelectResponse names no
// variant, so its value check needs the request it answers.
type soakOp struct {
	path, body string
	sel        []SelectRequest
}

// soakOps draws n requests over paths for apps from the seed. Batches
// carry 2 to 8 items; /observe reports a transfer on a demo site.
func soakOps(seed int64, n int, paths, apps []string) []soakOp {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	predict := func() PredictRequest {
		cfg := soakCfg
		if rng.Intn(2) == 0 {
			cfg.DataNodes = 1 << rng.Intn(3)
			cfg.ComputeNodes = cfg.DataNodes << rng.Intn(2)
			cfg.DatasetBytes = pick(soakSizes)
		}
		return PredictRequest{App: pick(apps), Variant: pick(soakVariants), Config: cfg}
	}
	sel := func() SelectRequest {
		req := SelectRequest{App: pick(apps), Size: pick(soakSizes), Limit: rng.Intn(3), Variant: pick(soakVariants)}
		if rng.Intn(4) == 0 {
			req.Deadline = "2h" // reachable at every size: exercises capacity planning
		}
		return req
	}
	ops := make([]soakOp, n)
	for i := range ops {
		path := pick(paths)
		var req any
		var sels []SelectRequest
		switch path {
		case "/predict":
			req = predict()
		case "/select":
			sels = []SelectRequest{sel()}
			req = sels[0]
		case "/predict/batch":
			items := make([]PredictRequest, 2+rng.Intn(7))
			for j := range items {
				items[j] = predict()
			}
			req = PredictBatchRequest{Items: items}
		case "/select/batch":
			sels = make([]SelectRequest, 2+rng.Intn(7))
			for j := range sels {
				sels[j] = sel()
			}
			req = SelectBatchRequest{Items: sels}
		case "/observe":
			req = ObserveRequest{Site: pick([]string{"osu-repository", "remote-mirror"}), Cluster: bench.PentiumCluster,
				Bytes: fmt.Sprintf("%dMB", 5+rng.Intn(40)), Elapsed: fmt.Sprintf("%dms", 500+rng.Intn(3500))}
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		ops[i] = soakOp{path, string(b), sels}
	}
	return ops
}

// servedAnswers decodes a 200 answer to a read into its responses: the
// one response, or every item of a batch (a failed item is a test error).
func servedAnswers[R any](t *testing.T, path string, body []byte) []R {
	t.Helper()
	var b BatchResponse[R]
	var err error
	if strings.HasSuffix(path, "/batch") {
		err = json.Unmarshal(body, &b)
	} else {
		b.Items = []BatchItem[R]{{Response: new(R)}}
		err = json.Unmarshal(body, b.Items[0].Response)
	}
	if err != nil {
		t.Errorf("%s: decoding answer: %v", path, err)
		return nil
	}
	out := make([]R, 0, len(b.Items))
	for i, it := range b.Items {
		if it.Error != nil {
			t.Errorf("%s item %d failed: %+v", path, i, *it.Error)
			continue
		}
		out = append(out, *it.Response)
	}
	return out
}

// servedSelect pairs one /select answer, or one batch item's, with the
// request it answers.
type servedSelect struct {
	req  SelectRequest
	resp SelectResponse
}

// checkRanking reports every candidate of a ranking whose predicted time
// differs from what pred — the calibration of the answer's storeVersion
// — predicts at that candidate's configuration, and returns how many
// candidates it checked.
func checkRanking(t *testing.T, who string, pred *core.Predictor, v core.Variant, a SelectResponse) int {
	t.Helper()
	for _, c := range a.Candidates {
		cfg := core.Config{Cluster: c.Cluster, DataNodes: c.DataNodes, ComputeNodes: c.ComputeNodes,
			Bandwidth: c.Bandwidth, DatasetBytes: a.Size}
		want, err := pred.Predict(cfg, v)
		if err != nil {
			t.Fatal(err)
		}
		if c.Predicted != want.Texec() {
			t.Errorf("%s at store version %d ranked %d-%d %v@%v at %v, that version predicts %v",
				who, a.StoreVersion, c.DataNodes, c.ComputeNodes, a.Size, c.Bandwidth, c.Predicted, want.Texec())
		}
	}
	return len(a.Candidates)
}

const (
	soakReaders = 4
	soakBatches = 4 // drift batches, each posting enough runs to recalibrate once
)

// TestCoherenceSoak: one writer forces drift recalibrations through
// POST /runs and, after each of its writes, records the store version
// and that snapshot's predictor. Concurrent readers check that their
// storeVersion never decreases and that no answer — per item in a batch
// — predates a recalibration acknowledged before the read was sent.
// Afterwards every /predict answer must equal, field for field, what the
// recorded predictor for the version it carries predicts; every /select
// candidate, per batch item too, must carry the time that predictor
// gives its configuration; and no answer may carry a version the writer
// never saw.
func TestCoherenceSoak(t *testing.T) {
	for _, tc := range []struct {
		name  string
		paths []string
		// observe interleaves /observe with the writer's runs, so the
		// select cache's version moves through both of its components.
		observe bool
	}{
		{"all-endpoints", []string{"/predict", "/select", "/predict/batch", "/select/batch"}, false},
		{"select-batch-epoch-bumps", []string{"/select/batch"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A roomy concurrency bound: this test measures coherence, not
			// the load-shedding limiter.
			s, err := New(Options{Store: testStore(t), MaxInFlight: 64})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			cfg, err := soakCfg.Config()
			if err != nil {
				t.Fatal(err)
			}
			cfgJSON, _ := json.Marshal(soakCfg)
			model := AppModelLookup("kmeans")

			// recorded maps every store version the writer saw to that
			// snapshot's predictor; only the writer touches it until done.
			recorded := make(map[uint64]*core.Predictor)
			record := func() core.Prediction {
				snap := s.Store().Snapshot()
				pred, err := snap.Predictor("kmeans", model)
				if err != nil {
					t.Fatal(err)
				}
				p, err := pred.Predict(cfg, core.GlobalReduction)
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := recorded[snap.Version()]; !ok {
					recorded[snap.Version()] = pred
				} else if q, _ := prev.Predict(cfg, core.GlobalReduction); q != p {
					t.Errorf("store version %d names two calibrations: T_exec %v, then %v", snap.Version(), q.Texec(), p.Texec())
				}
				return p
			}

			var floor atomic.Uint64 // the last recalibration the writer saw acknowledged
			var reads atomic.Int64
			var writerDone atomic.Bool
			floor.Store(s.Store().Snapshot().Version())
			// settle lets the readers complete a round of reads at the
			// version the writer just produced (a reader that failed stops
			// reading, so a failed test does not wait).
			settle := func() {
				target := reads.Load() + soakReaders
				for end := time.Now().Add(5 * time.Second); reads.Load() < target && time.Now().Before(end) && !t.Failed(); {
					time.Sleep(100 * time.Microsecond)
				}
			}

			var wg sync.WaitGroup
			answers := make([][]PredictResponse, soakReaders)
			selects := make([][]servedSelect, soakReaders)
			for r := range soakReaders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ops := soakOps(int64(r+1), 24, tc.paths, []string{"kmeans"})
					var last uint64
					for i := 0; i < len(ops) || !writerDone.Load(); i++ {
						op := ops[i%len(ops)]
						min := floor.Load()
						rec := postJSON(t, h, op.path, op.body)
						reads.Add(1)
						if rec.Code != http.StatusOK {
							t.Errorf("reader %d: %s status %d: %s", r, op.path, rec.Code, rec.Body)
							return
						}
						var vers []uint64
						if strings.HasPrefix(op.path, "/predict") {
							preds := servedAnswers[PredictResponse](t, op.path, rec.Body.Bytes())
							for _, p := range preds {
								vers = append(vers, p.StoreVersion)
							}
							answers[r] = append(answers[r], preds...)
						} else {
							got := servedAnswers[SelectResponse](t, op.path, rec.Body.Bytes())
							for i, a := range got {
								vers = append(vers, a.StoreVersion)
								if len(got) == len(op.sel) {
									selects[r] = append(selects[r], servedSelect{op.sel[i], a})
								}
							}
						}
						hi := last
						for _, v := range vers {
							if v < min || v < last {
								t.Errorf("reader %d: %s served store version %d; floor before the send %d, reader's last %d",
									r, op.path, v, min, last)
								return
							}
							hi = max(hi, v)
						}
						last = hi
					}
				}()
			}

			recals := 0
			cur := record()
			for b := range soakBatches {
				// Alternate 2x slower and 2x faster, so the profile stays bounded.
				factor := 2.0
				if b%2 == 1 {
					factor = 0.5
				}
				scaled := func(d time.Duration) time.Duration { return time.Duration(float64(d) * factor) }
				body := fmt.Sprintf(`{"app":"kmeans","config":%s,"tdisk":"%v","tnetwork":"%v","tcompute":"%v"}`,
					cfgJSON, scaled(cur.Tdisk), scaled(cur.Tnetwork), scaled(cur.Tcompute))
				for range profile.DefaultMinSamples + 1 {
					rec := postJSON(t, h, "/runs", body)
					var res profile.IngestResult
					if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
						t.Fatalf("/runs status %d: %s", rec.Code, rec.Body)
					}
					if res.Recalibrated {
						if res.StoreVersion <= floor.Load() {
							t.Errorf("recalibration acknowledged at store version %d, not past %d", res.StoreVersion, floor.Load())
						}
						recals++
						floor.Store(res.StoreVersion)
					}
					if tc.observe {
						ob := fmt.Sprintf(`{"site":"osu-repository","cluster":"pentium-myrinet","bytes":"%dMB","elapsed":"1s"}`, 5+recals)
						if rec := postJSON(t, h, "/observe", ob); rec.Code != http.StatusOK {
							t.Fatalf("/observe status %d: %s", rec.Code, rec.Body)
						}
					}
					cur = record()
				}
				settle()
			}
			writerDone.Store(true)
			wg.Wait()

			if recals != soakBatches {
				t.Fatalf("%d recalibrations from %d drift batches, want one each", recals, soakBatches)
			}
			checked, versions := 0, make(map[uint64]bool)
			for r, preds := range answers {
				for _, got := range preds {
					pred, ok := recorded[got.StoreVersion]
					if !ok {
						t.Errorf("reader %d: /predict carries store version %d, which the writer never produced", r, got.StoreVersion)
						continue
					}
					v, err := core.ParseVariant(got.Variant)
					if err != nil {
						t.Fatal(err)
					}
					want, err := pred.Predict(got.Config, v)
					if err != nil {
						t.Fatal(err)
					}
					served := core.Prediction{Config: got.Config, Variant: v, Tro: got.Tro, Tglobal: got.Tglobal,
						Breakdown: core.Breakdown{Tdisk: got.Tdisk, Tnetwork: got.Tnetwork, Tcompute: got.Tcompute}}
					if served != want || got.Texec != want.Texec() {
						t.Errorf("reader %d: /predict at store version %d served %+v, the calibration of that version predicts %+v",
							r, got.StoreVersion, served, want)
					}
					checked++
					versions[got.StoreVersion] = true
				}
			}
			candidates := 0
			for r, sels := range selects {
				for _, got := range sels {
					pred, ok := recorded[got.resp.StoreVersion]
					if !ok {
						t.Errorf("reader %d: /select carries store version %d, which the writer never produced", r, got.resp.StoreVersion)
						continue
					}
					v, err := s.requestVariant(got.req.Variant)
					if err != nil {
						t.Fatal(err)
					}
					candidates += checkRanking(t, fmt.Sprintf("reader %d: /select", r), pred, v, got.resp)
					versions[got.resp.StoreVersion] = true
				}
			}
			t.Logf("%d store versions, %d predictions and %d candidates value-checked across %d of them",
				len(recorded), checked, candidates, len(versions))
		})
	}
}

// TestCancellationSoak hammers the serve plane with client deadlines
// tight enough to abandon requests before and during handling; "em" is
// not in the test store, so its first request also starts a detached
// self-profiling run. An abandoned request answers a 499 or 504 JSON
// envelope (503 is shedding: the limiter answering while an abandoned
// handler unwinds), never anything else. After a settle of at most 5 s
// the goroutine count is back near the pre-run baseline: requests own no
// goroutines, so anything left is a stranded one.
func TestCancellationSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{Store: testStore(t), BaseBytes: 8 * units.MB, MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	timeouts := []time.Duration{time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond}
	paths := []string{"/predict", "/select", "/predict/batch", "/select/batch", "/observe"}
	var cut atomic.Int64
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, op := range soakOps(int64(100+w), 25, paths, []string{"kmeans", "em"}) {
				ctx, cancel := context.WithTimeout(context.Background(), timeouts[(w+i)%len(timeouts)])
				rec := postJSONCtx(ctx, h, op.path, op.body)
				cancel()
				switch rec.Code {
				case http.StatusOK:
					continue
				case StatusClientClosedRequest, http.StatusGatewayTimeout:
					cut.Add(1)
				case http.StatusServiceUnavailable:
				default:
					t.Errorf("%s under a client deadline: unexpected status %d: %s", op.path, rec.Code, rec.Body)
					continue
				}
				var e apiError
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Status != rec.Code {
					t.Errorf("%s: status %d without its JSON envelope (%v): %s", op.path, rec.Code, err, rec.Body)
				}
			}
		}()
	}
	wg.Wait()
	if cut.Load() == 0 {
		t.Fatal("no request was cut short: the soak exercised no cancellation path")
	}
	t.Logf("%d of 200 requests cut short", cut.Load())

	// The slack covers runtime goroutines that scale with the machine and
	// the server's persistent batch workers, not the workload.
	limit := baseline + 2*runtime.GOMAXPROCS(0) + 8
	n := runtime.NumGoroutine()
	for end := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(end); n = runtime.NumGoroutine() {
		time.Sleep(50 * time.Millisecond)
	}
	if n > limit {
		t.Fatalf("goroutine leak: %d alive after the soak (baseline %d, limit %d, %d requests cut short)",
			n, baseline, limit, cut.Load())
	}
}
