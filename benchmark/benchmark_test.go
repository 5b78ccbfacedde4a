package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestQuantileDegenerateSizes(t *testing.T) {
	if got := quantile([]int64(nil), 0.5); got != 0 {
		t.Errorf("empty: got %d, want 0", got)
	}
	one := []int64{7}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile(one, q); got != 7 {
			t.Errorf("one sample, q=%v: got %d, want 7", q, got)
		}
	}
	two := []int64{1, 9}
	if got := quantile(two, 0.5); got != 1 {
		t.Errorf("two samples, median: got %d, want 1 (nearest rank)", got)
	}
	if got := quantile(two, 0.51); got != 9 {
		t.Errorf("two samples, q=0.51: got %d, want 9", got)
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0: 1, 0.5: 50, 0.99: 99, 0.999: 100, 1: 100} {
		if got := quantile(hundred, q); got != want {
			t.Errorf("1..100, q=%v: got %d, want %d", q, got, want)
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	small := make([]int64, 8)
	for i := range small {
		small[i] = int64(i)
	}
	if v, q := tailQuantile(small, 0.99); v != 7 || q != 1 {
		t.Errorf("8 samples: got value %d at q=%v, want the maximum", v, q)
	}
	big := make([]int64, 2000)
	for i := range big {
		big[i] = int64(i)
	}
	if _, q := tailQuantile(big, 0.999, 0.99); q != 0.99 {
		t.Errorf("2000 samples: picked q=%v, want 0.99 (p999 has only 2 samples beyond it)", q)
	}
	if _, q := tailQuantile(big[:minP99Samples], 0.99); q != 0.99 {
		t.Errorf("%d samples: picked q=%v, want 0.99 (exactly ten beyond)", minP99Samples, q)
	}
	if _, q := tailQuantile(big[:minP99Samples-1], 0.99); q == 0.99 {
		t.Errorf("%d samples: picked p99 with fewer than ten samples beyond it", minP99Samples-1)
	}
}

func TestKindQuantileMatchesFilteredQuantile(t *testing.T) {
	var packed []uint32
	var selects []int64
	for i := 0; i < 1000; i++ {
		k := kindPredict
		if i%5 == 0 {
			k = kindSelect
			selects = append(selects, int64(i)*4)
		}
		packed = append(packed, packSample(0, k)|uint32(i)<<sampleShift)
	}
	got, n := kindQuantile(packed, kindSelect, 0.5)
	if want := quantile(selects, 0.5); got != want || n != len(selects) {
		t.Errorf("select median: got %d over %d, want %d over %d", got, n, want, len(selects))
	}
	if _, n := kindQuantile(packed, kindBatch, 0.5); n != 0 {
		t.Errorf("absent kind: got %d samples, want 0", n)
	}
}

// The op stream, the arrival times, and with them the per-client
// assignment (position i belongs to client i mod n) are pure functions
// of the seed.
func TestSchedulesArePureFunctionsOfSeed(t *testing.T) {
	voc := hotVocabulary()
	if got, want := len(voc.ops), 1620+360; got != want {
		t.Fatalf("hot vocabulary has %d requests, want %d", got, want)
	}
	gens := map[string]func(seed int64) string{
		"hot":   func(seed int64) string { return fingerprint(hotSchedule(voc, seed, 2048), nil) },
		"batch": func(seed int64) string { return fingerprint(batchSchedule(voc, seed, 8), nil) },
		"churn": func(seed int64) string { return fingerprint(churnSchedule(seed, 2048), nil) },
		"open": func(seed int64) string {
			return fingerprint(hotSchedule(voc, seed, 64), poissonArrivals(seed, openLoopRate, 2048))
		},
	}
	for name, gen := range gens {
		if gen(7) != gen(7) {
			t.Errorf("%s: equal seeds gave different checksums", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: different seeds gave the same checksum", name)
		}
	}
}

func TestPoissonArrivalsKeepTheRate(t *testing.T) {
	const n = 50_000
	arr := poissonArrivals(3, openLoopRate, n)
	for i := 1; i < n; i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	rate := float64(n) / (float64(arr[n-1]) / 1e9)
	if rate < 0.97*openLoopRate || rate > 1.03*openLoopRate {
		t.Errorf("achieved rate %.1f/s, want %d/s within 3%%", rate, openLoopRate)
	}
}

func TestChurnRunsAlternateDriftBlocks(t *testing.T) {
	var factors []float64
	for _, o := range churnSchedule(1, 1<<14) {
		if o.url != urlRuns {
			continue
		}
		var req struct{ Tnetwork string }
		if err := json.Unmarshal(o.body, &req); err != nil {
			t.Fatal(err)
		}
		// Tnetwork is 1s × factor.
		if req.Tnetwork[0] == '1' || req.Tnetwork[0] == '2' {
			factors = append(factors, 2)
		} else {
			factors = append(factors, 0.5)
		}
	}
	if len(factors) < 4*driftBlock {
		t.Fatalf("only %d /runs ops in the schedule", len(factors))
	}
	for i, f := range factors {
		want := 2.0
		if (i/driftBlock)%2 == 1 {
			want = 0.5
		}
		if f != want {
			t.Fatalf("/runs op %d has drift factor ~%v, want ~%v", i, f, want)
		}
	}
}

func TestJSONInt(t *testing.T) {
	body := []byte("{\n  \"storeVersion\": 12,\n  \"tdiskNs\": 3400000000,\n  \"neg\": -5\n}")
	if v, ok := jsonInt(body, needleVersion); !ok || v != 12 {
		t.Errorf("storeVersion: got %d %v", v, ok)
	}
	if v, ok := jsonInt(body, needleTdisk); !ok || v != 3400000000 {
		t.Errorf("tdiskNs: got %d %v", v, ok)
	}
	if v, ok := jsonInt(body, []byte(`"neg": `)); !ok || v != -5 {
		t.Errorf("neg: got %d %v", v, ok)
	}
	if _, ok := jsonInt(body, needleTexec); ok {
		t.Error("absent key reported present")
	}
}

func TestSelfTimeSubtractsReplayedChildren(t *testing.T) {
	rec := newSpanRecorder(8)
	root := rec.add(1, 0, "fgservice", "/predict", 0, 100)
	rec.add(1, root, "servecache", "get_hit", 100, 130)
	rec.add(1, root, "fgservice", "json_encode", 130, 150)
	big := rec.add(2, 0, "fgservice", "/predict", 200, 210)
	rec.add(2, big, "fgservice", "json_encode", 210, 250) // replay longer than its root
	self := rec.selfTimes()
	if got := self[spanKey{"fgservice", "/predict"}]; !reflect.DeepEqual(got, []int64{50, 0}) {
		t.Errorf("root self times: got %v, want [50 0]", got)
	}
	if got := rec.durations("fgservice", "json_encode", "/predict"); !reflect.DeepEqual(got, []int64{20, 40}) {
		t.Errorf("encode durations: got %v, want [20 40]", got)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricSpec{Better: "lower"}
	higher := metricSpec{Better: "higher"}
	if got := worsening(lower, 100, 110); got != 0.1 {
		t.Errorf("lower-is-better 100→110: got %v, want 0.1", got)
	}
	if got := worsening(higher, 100, 90); got != 0.1 {
		t.Errorf("higher-is-better 100→90: got %v, want 0.1", got)
	}
	if got := worsening(higher, 100, 110); got >= 0 {
		t.Errorf("an improvement read as a worsening: %v", got)
	}
}

// BENCHMARK.json is spec.go rendered; the contract's limits are checked
// here so a bad edit fails a test instead of the driver.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkJSON
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, benchmarkSpec()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with -print-spec")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || m == metricSpec{"setup_s", "s", "lower", m.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if m.Bound != 0 || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("metric or workload count outside the contract's limits")
	}
}
