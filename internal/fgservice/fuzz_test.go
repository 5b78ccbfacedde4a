package fgservice

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzConfigRequestConfig fuzzes the wire→core boundary of a target
// configuration. The pinned contract: whatever JSON arrives, Config()
// either errors or returns finite quantities — a nil error never
// smuggles NaN/±Inf bandwidths or sizes into the prediction arithmetic
// (where they would poison every downstream duration).
func FuzzConfigRequestConfig(f *testing.F) {
	for _, seed := range []string{
		`{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}`,
		`{"bandwidth":"NaNMB","datasetBytes":"1GB"}`,
		`{"bandwidth":"+InfMB","datasetBytes":"NaNGB"}`,
		`{"bandwidth":"1e308GB","datasetBytes":"1e308GB"}`,
		`{"cluster":"","dataNodes":-1,"computeNodes":0,"bandwidth":"","datasetBytes":""}`,
		`{"bandwidth":"-100MB","datasetBytes":"-5MB"}`,
		`{"bandwidth":"100","datasetBytes":"0.0000001KB"}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var req ConfigRequest
		if json.Unmarshal([]byte(raw), &req) != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		if bw := float64(cfg.Bandwidth); math.IsNaN(bw) || math.IsInf(bw, 0) {
			t.Fatalf("Config() accepted non-finite bandwidth %v from %q", bw, raw)
		}
		if sz := float64(cfg.DatasetBytes); math.IsNaN(sz) || math.IsInf(sz, 0) {
			t.Fatalf("Config() accepted non-finite dataset size %v from %q", sz, raw)
		}
	})
}

// FuzzRunRequestObservation fuzzes the /runs calibration-sample parser.
// Contract: observation() either errors or yields an observation whose
// config is finite and whose durations are exactly what the duration
// strings parse to — no partial fills where one bad field leaves the
// others applied.
func FuzzRunRequestObservation(f *testing.F) {
	for _, seed := range []string{
		`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"},"tdisk":"2s","tnetwork":"1s","tcompute":"8s"}`,
		`{"app":"kmeans","config":{"cluster":"c","dataNodes":1,"computeNodes":1,"bandwidth":"1MB","datasetBytes":"1MB"},"tdisk":"-2s","tnetwork":"1s","tcompute":"8s"}`,
		`{"app":"","tdisk":"2s"}`,
		`{"app":"kmeans","config":{"bandwidth":"NaNMB","datasetBytes":"1MB"},"tdisk":"2s","tnetwork":"1s","tcompute":"8s"}`,
		`{"app":"kmeans","config":{"cluster":"c","dataNodes":1,"computeNodes":1,"bandwidth":"1MB","datasetBytes":"1MB"},"tdisk":"2s","tnetwork":"1s","tcompute":"8s","roBytesPerNode":"InfKB"}`,
		`{"app":"kmeans","config":{"cluster":"c","dataNodes":1,"computeNodes":1,"bandwidth":"1MB","datasetBytes":"1MB"},"tdisk":"9999999h","tnetwork":"1ns","tcompute":"1s","iterations":-3}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var req RunRequest
		if json.Unmarshal([]byte(raw), &req) != nil {
			return
		}
		obs, err := req.observation()
		if err != nil {
			return
		}
		if bw := float64(obs.Config.Bandwidth); math.IsNaN(bw) || math.IsInf(bw, 0) {
			t.Fatalf("observation() accepted non-finite bandwidth %v from %q", bw, raw)
		}
		if sz := float64(obs.Config.DatasetBytes); math.IsNaN(sz) || math.IsInf(sz, 0) {
			t.Fatalf("observation() accepted non-finite dataset size %v from %q", sz, raw)
		}
		for _, d := range []struct {
			name string
			raw  string
			got  time.Duration
		}{
			{"tdisk", req.Tdisk, obs.Tdisk},
			{"tnetwork", req.Tnetwork, obs.Tnetwork},
			{"tcompute", req.Tcompute, obs.Tcompute},
		} {
			want, perr := time.ParseDuration(d.raw)
			if perr != nil {
				t.Fatalf("observation() succeeded with unparseable %s %q", d.name, d.raw)
			}
			if d.got != want {
				t.Fatalf("%s = %v, want %v (from %q)", d.name, d.got, want, d.raw)
			}
		}
	})
}

// FuzzDecodeJSON fuzzes the strict request decoder. The pinned contract:
// a body decodeJSON accepts is exactly one valid JSON document —
// whatever follows the first value (a second value, a stray closer,
// garbage) is a rejection, never silently ignored.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []string{
		goodPredict,
		goodPredict + "\n",
		goodPredict + `{}`,
		goodPredict + ` 1`,
		goodPredict + ` }`,
		goodPredict + ` ]`,
		goodPredict + `}`,
		goodPredict + `]]`,
		`{"app":"kmeans","confg":{}}`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
		var req PredictRequest
		if err := decodeJSON(context.Background(), httptest.NewRecorder(), r, &req); err != nil {
			return
		}
		if !json.Valid([]byte(body)) {
			t.Fatalf("decodeJSON accepted a body that is not one valid JSON document: %q", body)
		}
	})
}

// FuzzAppendIndent is the differential oracle for writeJSON's indenter:
// for any document encoding/json marshals (plus the encoder's trailing
// newline), appendIndent must write exactly what json.Indent with a
// two-space indent writes. The fuzzed string lands in values and keys,
// next to empty and nested objects and arrays, numbers, booleans and
// null; depth nests the document past the indenter's cached indents.
func FuzzAppendIndent(f *testing.F) {
	f.Add("plain", 1.5, int64(-3), uint8(2), true)
	f.Add(`say "hi", then {x: [1]} \ \"`, 0.0, int64(0), uint8(0), false)
	f.Add("<script>&amp;</script>", -1e300, int64(math.MaxInt64), uint8(5), true)
	f.Add("line\u2028sep\u2029 and \n\t\x00 ctl", 1e-7, int64(math.MinInt64), uint8(1), false)
	f.Add("\xff\xfe invalid \xc3 utf-8", 123456789.0, int64(42), uint8(19), true)
	f.Add(`{"a":[1,2],"b":{}}`, 1e21, int64(7), uint8(40), false)
	f.Add(`\`, -0.0, int64(1), uint8(3), true)
	f.Add("", 0.5, int64(-1), uint8(0), true)
	f.Fuzz(func(t *testing.T, s string, x float64, n int64, depth uint8, empty bool) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // encoding/json refuses non-finite numbers
		}
		var inner any = []any{s, x, n, nil, true, false, map[string]any{}, []any{}}
		if empty {
			inner = map[string]any{}
		}
		for i := 0; i < int(depth%48); i++ {
			if i%2 == 0 {
				inner = map[string]any{s: inner, "e": []any{}, "n": nil}
			} else {
				inner = []any{inner, map[string]any{}, x}
			}
		}
		doc := map[string]any{"s": s, s: x, "v": inner, "o": map[string]any{s: []any{s}}}
		for _, v := range []any{doc, s, x, n, nil, []any{}, map[string]any{}} {
			src, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			src = append(src, '\n')
			var want bytes.Buffer
			if err := json.Indent(&want, src, "", "  "); err != nil {
				t.Fatalf("json.Indent: %v", err)
			}
			if got := appendIndent(nil, src); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("appendIndent(%q):\n%s\njson.Indent:\n%s", src, got, want.Bytes())
			}
		}
	})
}
