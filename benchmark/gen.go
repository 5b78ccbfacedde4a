package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"time"

	"freerideg/internal/bench"
	"freerideg/internal/fgservice"
)

// The load generator's inputs. Everything here is a pure function of the
// seed: which ops run, in what order, on which client, and (for the open
// loop) when each is due. The benchmark owns these drawing rules — they
// follow internal/loadgen's idiom (a seeded rand, pre-generated bodies,
// an FNV fingerprint) but share no code with it, so a later change to
// loadgen or fgload cannot change what is measured.

// opKind tags an op with its endpoint; it rides in the low bits of every
// latency sample so per-endpoint medians need no second sample buffer.
type opKind uint8

const (
	kindPredict opKind = iota
	kindSelect
	kindWrite // /observe and /runs
	kindBatch // /predict/batch and /select/batch
)

// op is one pre-generated request. ref indexes the workload's reference
// response table (-1 when the op has no byte-for-byte reference).
type op struct {
	url  *url.URL
	body []byte
	kind opKind
	ref  int
	// noDeadline marks a /select whose answer must name candidates[0] as
	// selected.
	noDeadline bool
}

var (
	urlPredict      = mustURL("/predict")
	urlSelect       = mustURL("/select")
	urlObserve      = mustURL("/observe")
	urlRuns         = mustURL("/runs")
	urlPredictBatch = mustURL("/predict/batch")
	urlSelectBatch  = mustURL("/select/batch")
)

func mustURL(path string) *url.URL {
	u, err := url.Parse("http://in-process" + path)
	if err != nil {
		panic(err)
	}
	return u
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// The wire types marshal by construction.
		panic(fmt.Sprintf("benchmark: marshaling %T: %v", v, err))
	}
	return b
}

// paperApps is the vocabulary's application axis — the five
// applications the paper evaluates — and the order every server in a
// run is warmed in, so store versions line up between the server under
// test and the reference server.
var paperApps = []string{"kmeans", "em", "vortex", "defect", "knn"}

// variants rotates requests across the three model variants plus the
// server default, so cache keys span the variant dimension.
var variants = []string{"", "nocomm", "reduction", "global"}

// vocabulary is a workload's distinct read requests: every /predict and
// every /select it can issue, in a fixed order.
type vocabulary struct {
	predict    []fgservice.PredictRequest
	sel        []fgservice.SelectRequest
	ops        []op // predict ops first, then select ops
	numPredict int
}

func newVocabulary(preds []fgservice.PredictRequest, sels []fgservice.SelectRequest) *vocabulary {
	v := &vocabulary{predict: preds, sel: sels, numPredict: len(preds)}
	for _, r := range preds {
		v.ops = append(v.ops, op{url: urlPredict, body: mustJSON(r), kind: kindPredict, ref: len(v.ops)})
	}
	for _, r := range sels {
		v.ops = append(v.ops, op{url: urlSelect, body: mustJSON(r), kind: kindSelect, ref: len(v.ops),
			noDeadline: r.Deadline == ""})
	}
	return v
}

// hotVocabulary enumerates the hot workloads' key space: 5 apps × 27
// (data, compute, bandwidth) configurations × 3 sizes × 4 variants =
// 1620 predictions and 5 × 3 sizes × 3 limits × 2 deadlines × 4
// variants = 360 selections. Both fit the service's 4096-entry response
// caches and 512 rank tables, so after one pass every op is a cache
// hit. The vocabulary does not depend on the seed; the seed picks the
// order ops are drawn in.
func hotVocabulary() *vocabulary {
	sizes := []string{"32MB", "64MB", "128MB"}
	var preds []fgservice.PredictRequest
	var sels []fgservice.SelectRequest
	for _, app := range paperApps {
		for _, dn := range []int{1, 2, 4} {
			for _, mult := range []int{1, 2, 4} {
				for _, bw := range []string{"50MB", "100MB", "200MB"} {
					for _, size := range sizes {
						for _, variant := range variants {
							preds = append(preds, fgservice.PredictRequest{
								App: app, Variant: variant,
								Config: fgservice.ConfigRequest{
									Cluster: bench.PentiumCluster, DataNodes: dn, ComputeNodes: dn * mult,
									Bandwidth: bw, DatasetBytes: size,
								},
							})
						}
					}
				}
			}
		}
		for _, size := range sizes {
			for _, limit := range []int{0, 1, 3} {
				// A generous deadline exercises capacity planning without
				// ever being unreachable at these sizes.
				for _, deadline := range []string{"", "2h"} {
					for _, variant := range variants {
						sels = append(sels, fgservice.SelectRequest{
							App: app, Size: size, Limit: limit, Deadline: deadline, Variant: variant,
						})
					}
				}
			}
		}
	}
	return newVocabulary(preds, sels)
}

// fingerprint hashes an op stream and the open loop's arrival offsets,
// so two runs can prove they replayed the same inputs. Client c of n
// issues schedule positions c, c+n, c+2n, …, so the per-client
// assignment is fixed by the schedule, not by which goroutine happens to
// run first.
func fingerprint(ops []op, arrivals []int64) string {
	sum := fnv.New64a()
	for i := range ops {
		sum.Write([]byte(ops[i].url.Path))
		sum.Write([]byte{0})
		sum.Write(ops[i].body)
		sum.Write([]byte{0})
	}
	var b [8]byte
	for _, a := range arrivals {
		binary.LittleEndian.PutUint64(b[:], uint64(a))
		sum.Write(b[:])
	}
	return fmt.Sprintf("%016x", sum.Sum64())
}

// scheduleLen is the number of pre-generated ops per schedule: long
// enough that one cycle covers the hot vocabulary several times over
// and that the churn workload's distinct keys far outnumber the 4096
// cache entries, short enough to stay a few megabytes.
const scheduleLen = 1 << 15

// hotSchedule draws n ops from the vocabulary with predict=8,select=2.
func hotSchedule(v *vocabulary, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	numSelect := len(v.ops) - v.numPredict
	for i := range ops {
		if rng.Intn(10) < 8 {
			ops[i] = v.ops[rng.Intn(v.numPredict)]
		} else {
			ops[i] = v.ops[v.numPredict+rng.Intn(numSelect)]
		}
	}
	return ops
}

// batchItems is the exact item count of every batch op.
const batchItems = 64

// batchSchedule draws n batch ops, alternating /predict/batch and
// /select/batch, each of exactly 64 items from the hot vocabulary. Every
// op is distinct, so its reference index is its position.
func batchSchedule(v *vocabulary, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		if i%2 == 0 {
			items := make([]fgservice.PredictRequest, batchItems)
			for j := range items {
				items[j] = v.predict[rng.Intn(len(v.predict))]
			}
			ops[i] = op{url: urlPredictBatch, body: mustJSON(fgservice.PredictBatchRequest{Items: items}), kind: kindBatch, ref: i}
		} else {
			items := make([]fgservice.SelectRequest, batchItems)
			for j := range items {
				items[j] = v.sel[rng.Intn(len(v.sel))]
			}
			ops[i] = op{url: urlSelectBatch, body: mustJSON(fgservice.SelectBatchRequest{Items: items}), kind: kindBatch, ref: i}
		}
	}
	return ops
}

// Churn key space: 5 apps × 9 (data, compute) shapes × 256 sizes × 16
// bandwidths × 4 variants ≈ 737k predictions, far beyond the 4096-entry
// cache, and 2 apps × 64 sizes × 3 resolved variants = 384 rank tables,
// inside the engine's 512-table bound.
const (
	churnPredictSizes = 256
	churnBandwidths   = 16
	churnSelectSizes  = 64
	// driftBlock is how many consecutive /runs ops share one drift
	// factor. Blocks alternate 2× and 0.5× of a fixed breakdown, so each
	// block disagrees with the profile the previous block calibrated and
	// lands one recalibration; at runs=1 in 10 ops that is one store
	// version move every ~120 ops.
	driftBlock = 48
)

var (
	churnSelectApps = []string{"kmeans", "em"}
	churnSites      = []string{"osu-repository", "remote-mirror"}
)

// churnSchedule draws n ops with predict=5,select=3,observe=1,runs=1
// over the wide key space. /runs ops calibrate one fixed kmeans
// configuration so drift accumulates there instead of scattering.
func churnSchedule(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	runs := 0
	for i := range ops {
		switch k := rng.Intn(10); {
		case k < 5:
			dn := []int{1, 2, 4}[rng.Intn(3)]
			ops[i] = op{url: urlPredict, kind: kindPredict, ref: -1, body: mustJSON(fgservice.PredictRequest{
				App:     paperApps[rng.Intn(len(paperApps))],
				Variant: variants[rng.Intn(len(variants))],
				Config: fgservice.ConfigRequest{
					Cluster: bench.PentiumCluster, DataNodes: dn, ComputeNodes: dn * []int{1, 2, 4}[rng.Intn(3)],
					Bandwidth:    fmt.Sprintf("%dMB", 25+10*rng.Intn(churnBandwidths)),
					DatasetBytes: fmt.Sprintf("%dMB", 16+rng.Intn(churnPredictSizes)),
				},
			})}
		case k < 8:
			deadline := ""
			if rng.Intn(4) == 0 {
				deadline = "2h"
			}
			ops[i] = op{url: urlSelect, kind: kindSelect, ref: -1, noDeadline: deadline == "", body: mustJSON(fgservice.SelectRequest{
				App:      churnSelectApps[rng.Intn(len(churnSelectApps))],
				Size:     fmt.Sprintf("%dMB", 4*(1+rng.Intn(churnSelectSizes))),
				Limit:    []int{0, 1, 3}[rng.Intn(3)],
				Deadline: deadline,
				Variant:  variants[rng.Intn(len(variants))],
			})}
		case k < 9:
			// A transfer consistent with one of four path bandwidths plus
			// a fixed latency, so every least-squares fit the estimator
			// makes over its window is sane.
			mb := 8 * (1 + rng.Intn(16))
			bw := []int{20, 40, 80, 160}[rng.Intn(4)]
			elapsed := 50*time.Millisecond + time.Duration(mb)*time.Second/time.Duration(bw)
			ops[i] = op{url: urlObserve, kind: kindWrite, ref: -1, body: mustJSON(fgservice.ObserveRequest{
				Site: churnSites[rng.Intn(len(churnSites))], Cluster: bench.PentiumCluster,
				Bytes: fmt.Sprintf("%dMB", mb), Elapsed: elapsed.String(),
			})}
		default:
			factor := 2.0
			if (runs/driftBlock)%2 == 1 {
				factor = 0.5
			}
			runs++
			// ±2% jitter keeps the samples of one block distinct without
			// coming near the 15% drift threshold on its own.
			factor *= 0.98 + 0.04*rng.Float64()
			scale := func(d time.Duration) string { return time.Duration(float64(d) * factor).String() }
			ops[i] = op{url: urlRuns, kind: kindWrite, ref: -1, body: mustJSON(fgservice.RunRequest{
				App: "kmeans",
				Config: fgservice.ConfigRequest{
					Cluster: bench.PentiumCluster, DataNodes: 1, ComputeNodes: 2,
					Bandwidth: "100MB", DatasetBytes: "64MB",
				},
				Tdisk: scale(2 * time.Second), Tnetwork: scale(time.Second), Tcompute: scale(8 * time.Second),
				Iterations: 10,
			})}
		}
	}
	return ops
}

// poissonArrivals returns n send offsets (nanoseconds from the start of
// the run) of a Poisson process of the given rate: independent
// exponential gaps, the memoryless arrival shape grid workload traces
// are usually approximated by at sub-minute scale.
func poissonArrivals(seed int64, rate float64, n int) []int64 {
	// A separate stream from the op draw, so changing the rate never
	// changes which ops are sent.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0a77))
	out := make([]int64, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate * 1e9
		out[i] = int64(t)
	}
	return out
}
