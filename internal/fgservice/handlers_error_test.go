package fgservice

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"freerideg/internal/metrics"
)

// errorCounter reads the per-endpoint HTTP error counter the
// instrumentation middleware maintains.
func errorCounter(path string) *metrics.Counter {
	return metrics.GetCounter("fg_http_errors_total", "", metrics.Label{Key: "path", Value: path})
}

// doRequest issues one request with an arbitrary method against the
// handler (postJSON is POST-only).
func doRequest(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// oversizedBody is a syntactically valid JSON object just past the
// request body cap, so the only thing wrong with it is its size.
func oversizedBody() string {
	return `{"pad":"` + strings.Repeat("x", MaxRequestBody) + `"}`
}

const (
	goodConfig  = `{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"512MB"}`
	goodPredict = `{"app":"kmeans","config":` + goodConfig + `}`
	goodRun     = `{"app":"kmeans","config":` + goodConfig + `,"tdisk":"2s","tnetwork":"1s","tcompute":"8s"}`
)

// errorCase is one row of the client-error table errorCases returns:
// every endpoint through each of its error classes.
// TestHandlerErrorPaths drives it against the singular endpoints;
// TestBatchItemErrorsMatchSingular replays the rows a batch item can
// express as one-item batches.
type errorCase struct {
	name     string
	method   string
	path     string
	body     string
	status   int
	contains string // required substring of the error message
}

func errorCases() []errorCase {
	return []errorCase{
		// Wrong method on every endpoint.
		{"predict wrong method", http.MethodGet, "/predict", "", http.StatusMethodNotAllowed, "method"},
		{"select wrong method", http.MethodGet, "/select", "", http.StatusMethodNotAllowed, "method"},
		{"observe wrong method", http.MethodGet, "/observe", "", http.StatusMethodNotAllowed, "method"},
		{"runs wrong method", http.MethodDelete, "/runs", "", http.StatusMethodNotAllowed, "method"},
		{"profiles wrong method", http.MethodPost, "/profiles", "{}", http.StatusMethodNotAllowed, "method"},
		{"healthz wrong method", http.MethodPost, "/healthz", "{}", http.StatusMethodNotAllowed, "method"},

		// Malformed JSON.
		{"predict malformed json", http.MethodPost, "/predict", "{nope", http.StatusBadRequest, "decoding request"},
		{"select malformed json", http.MethodPost, "/select", "[", http.StatusBadRequest, "decoding request"},
		{"observe malformed json", http.MethodPost, "/observe", "not json", http.StatusBadRequest, "decoding request"},
		{"runs malformed json", http.MethodPost, "/runs", `{"app":}`, http.StatusBadRequest, "decoding request"},

		// Empty body is a decode error too, not a panic or a 500.
		{"predict empty body", http.MethodPost, "/predict", "", http.StatusBadRequest, "decoding request"},

		// Unknown fields are rejected — a misspelled key must not be
		// silently dropped into a default.
		{"predict unknown field", http.MethodPost, "/predict",
			`{"app":"kmeans","confg":` + goodConfig + `}`, http.StatusBadRequest, "unknown field"},
		{"select unknown field", http.MethodPost, "/select",
			`{"app":"kmeans","size":"1GB","lmit":3}`, http.StatusBadRequest, "unknown field"},
		{"observe unknown field", http.MethodPost, "/observe",
			`{"site":"osu-repository","cluster":"pentium-myrinet","bytes":"1MB","elapsed":"1s","speed":"9"}`,
			http.StatusBadRequest, "unknown field"},
		{"runs unknown field", http.MethodPost, "/runs",
			`{"app":"kmeans","twall":"10s"}`, http.StatusBadRequest, "unknown field"},

		// Trailing content after the first JSON value.
		{"predict trailing value", http.MethodPost, "/predict", goodPredict + `{}`,
			http.StatusBadRequest, "more than one JSON value"},
		// A stray closer is trailing content too (json.Decoder.More is
		// false at one, so a More-based check lets these through).
		{"predict trailing brace", http.MethodPost, "/predict", goodPredict + ` }`,
			http.StatusBadRequest, "more than one JSON value"},
		{"predict trailing bracket", http.MethodPost, "/predict", goodPredict + ` ]`,
			http.StatusBadRequest, "more than one JSON value"},
		{"select trailing brace unspaced", http.MethodPost, "/select", `{"app":"kmeans","size":"1GB"}}`,
			http.StatusBadRequest, "more than one JSON value"},
		{"select trailing brackets", http.MethodPost, "/select", `{"app":"kmeans","size":"1GB"}]]`,
			http.StatusBadRequest, "more than one JSON value"},

		// Oversized bodies on each POST endpoint.
		{"predict oversized body", http.MethodPost, "/predict", oversizedBody(), http.StatusBadRequest, "exceeds"},
		{"select oversized body", http.MethodPost, "/select", oversizedBody(), http.StatusBadRequest, "exceeds"},
		{"observe oversized body", http.MethodPost, "/observe", oversizedBody(), http.StatusBadRequest, "exceeds"},
		{"runs oversized body", http.MethodPost, "/runs", oversizedBody(), http.StatusBadRequest, "exceeds"},

		// Non-finite numerics are stopped at the parse boundary.
		{"predict non-finite size", http.MethodPost, "/predict",
			`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"NaNGB"}}`,
			http.StatusBadRequest, "non-finite"},
		{"predict non-finite bandwidth", http.MethodPost, "/predict",
			`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"+InfMB","datasetBytes":"512MB"}}`,
			http.StatusBadRequest, "non-finite"},
		{"select non-finite size", http.MethodPost, "/select",
			`{"app":"kmeans","size":"NaNGB"}`, http.StatusBadRequest, "non-finite"},
		{"observe non-finite bytes", http.MethodPost, "/observe",
			`{"site":"osu-repository","cluster":"pentium-myrinet","bytes":"InfMB","elapsed":"1s"}`,
			http.StatusBadRequest, "non-finite"},
		{"runs non-finite size", http.MethodPost, "/runs",
			`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":1,"computeNodes":1,"bandwidth":"100MB","datasetBytes":"InfGB"},"tdisk":"2s","tnetwork":"1s","tcompute":"8s"}`,
			http.StatusBadRequest, "non-finite"},

		// Unknown application and variant.
		{"predict unknown app", http.MethodPost, "/predict",
			`{"app":"warpdrive","config":` + goodConfig + `}`, http.StatusNotFound, "warpdrive"},
		{"select unknown app", http.MethodPost, "/select",
			`{"app":"warpdrive","size":"1GB"}`, http.StatusNotFound, "warpdrive"},
		{"predict unknown variant", http.MethodPost, "/predict",
			`{"app":"kmeans","variant":"psychic","config":` + goodConfig + `}`, http.StatusBadRequest, "psychic"},
		{"select unknown variant", http.MethodPost, "/select",
			`{"app":"kmeans","size":"1GB","variant":"psychic"}`, http.StatusBadRequest, "psychic"},

		// Semantic validation after a clean decode.
		{"predict invalid config", http.MethodPost, "/predict",
			`{"app":"kmeans","config":{"cluster":"pentium-myrinet","dataNodes":4,"computeNodes":2,"bandwidth":"100MB","datasetBytes":"512MB"}}`,
			http.StatusBadRequest, "compute nodes"},
		{"select bad deadline", http.MethodPost, "/select",
			`{"app":"kmeans","size":"1GB","deadline":"soon"}`, http.StatusBadRequest, "deadline"},
		{"observe missing site", http.MethodPost, "/observe",
			`{"cluster":"pentium-myrinet","bytes":"1MB","elapsed":"1s"}`, http.StatusBadRequest, "site"},
		{"runs missing duration", http.MethodPost, "/runs",
			`{"app":"kmeans","config":` + goodConfig + `,"tnetwork":"1s","tcompute":"8s"}`,
			http.StatusBadRequest, "tdisk"},
		{"runs missing app", http.MethodPost, "/runs",
			`{"config":` + goodConfig + `,"tdisk":"2s","tnetwork":"1s","tcompute":"8s"}`,
			http.StatusBadRequest, "app"},
	}
}

// TestHandlerErrorPaths drives every endpoint through its client-error
// classes and pins three contracts per case: the HTTP status, the
// structured apiError envelope (a client mistake is never a bare 500
// body), and that the per-endpoint error counter moved by exactly one.
func TestHandlerErrorPaths(t *testing.T) {
	h := testServer(t).Handler()

	for _, tc := range errorCases() {
		t.Run(tc.name, func(t *testing.T) {
			errsBefore := errorCounter(tc.path).Value()
			rec := doRequest(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, tc.status, rec.Body)
			}
			var apiErr struct {
				Error     string `json:"error"`
				Status    int    `json:"status"`
				RequestID string `json:"requestId"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
				t.Fatalf("error body is not the apiError envelope: %v (%s)", err, rec.Body)
			}
			if apiErr.Error == "" || apiErr.Status != tc.status {
				t.Fatalf("envelope = %+v, want non-empty error with status %d", apiErr, tc.status)
			}
			if !strings.Contains(apiErr.Error, tc.contains) {
				t.Errorf("error %q does not mention %q", apiErr.Error, tc.contains)
			}
			// Every error envelope correlates: a non-empty requestId that
			// matches the X-FG-Request-ID response header exactly.
			hdrID := rec.Header().Get("X-FG-Request-ID")
			if apiErr.RequestID == "" || hdrID == "" || apiErr.RequestID != hdrID {
				t.Errorf("requestId %q vs X-FG-Request-ID header %q: want equal and non-empty",
					apiErr.RequestID, hdrID)
			}
			if got := errorCounter(tc.path).Value() - errsBefore; got != 1 {
				t.Errorf("fg_http_errors_total{path=%s} moved by %v, want 1", tc.path, got)
			}
		})
	}
}

// TestErrorPathsLeaveSuccessCounterClean pins that an error request
// still answers a later valid one — the handler state (limiter slots,
// caches) survives every error class above.
func TestErrorPathsLeaveSuccessCounterClean(t *testing.T) {
	h := testServer(t).Handler()
	if rec := postJSON(t, h, "/predict", `{"app":"kmeans","confg":{}}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", rec.Code)
	}
	if rec := postJSON(t, h, "/predict", goodPredict); rec.Code != http.StatusOK {
		t.Fatalf("valid request after error: %d (%s)", rec.Code, rec.Body)
	}
}

// TestBatchItemErrorsMatchSingular keeps a batch item and its singular
// endpoint one function: every error-table case a batch item can
// express (a POST body that strictly decodes as the item type) is
// replayed as a one-item batch, and the item's status and message must
// equal the singular envelope's.
func TestBatchItemErrorsMatchSingular(t *testing.T) {
	h := testServer(t).Handler()
	strict := func(body string, v any) bool {
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v) == nil
	}
	replayed := 0
	for _, tc := range errorCases() {
		switch {
		case tc.method != http.MethodPost || !json.Valid([]byte(tc.body)):
			continue
		case tc.path == "/predict" && strict(tc.body, new(PredictRequest)):
		case tc.path == "/select" && strict(tc.body, new(SelectRequest)):
		default:
			continue
		}
		replayed++
		t.Run(tc.name, func(t *testing.T) {
			var single apiError
			rec := postJSON(t, h, tc.path, tc.body)
			if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil || rec.Code != tc.status {
				t.Fatalf("singular: status %d, envelope error %v: %s", rec.Code, err, rec.Body)
			}
			rec = postJSON(t, h, tc.path+"/batch", `{"items":[`+tc.body+`]}`)
			if rec.Code != http.StatusOK {
				t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
			}
			var batch struct {
				Items []struct {
					Response json.RawMessage `json:"response"`
					Error    *apiError       `json:"error"`
				} `json:"items"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Items) != 1 {
				t.Fatalf("batch body (%v): %s", err, rec.Body)
			}
			item := batch.Items[0]
			if item.Error == nil || item.Response != nil {
				t.Fatalf("item answered without error: %s", rec.Body)
			}
			if item.Error.Status != single.Status || item.Error.Error != single.Error {
				t.Errorf("batch item error = %d %q, singular envelope = %d %q",
					item.Error.Status, item.Error.Error, single.Status, single.Error)
			}
		})
	}
	if replayed < 9 {
		t.Fatalf("only %d error-table cases were replayed as batch items, want the 9 item-level ones", replayed)
	}
}

// departingBody is a request body whose client goes away mid-upload: the
// read fails and the request's context is canceled.
type departingBody struct{ cancel context.CancelFunc }

func (b departingBody) Read([]byte) (int, error) {
	b.cancel()
	return 0, io.ErrUnexpectedEOF
}

// TestBodyReadCutShortIsNotAClientError: a decode that failed because
// the request ended mid-upload answers (and is counted as) the 499, not
// a 400 blaming the body.
func TestBodyReadCutShortIsNotAClientError(t *testing.T) {
	s := testServer(t)
	canceled := metrics.GetCounter("fg_requests_canceled_total", "",
		metrics.Label{Key: "path", Value: "/predict"})
	before := canceled.Value()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/predict", departingBody{cancel}).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499: %s", rec.Code, rec.Body)
	}
	if got := canceled.Value() - before; got != 1 {
		t.Errorf("fg_requests_canceled_total moved by %v, want 1", got)
	}
}
