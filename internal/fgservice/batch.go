package fgservice

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"freerideg/internal/metrics"
	"freerideg/internal/reqtrace"
)

// The batch serve plane: POST /predict/batch and /select/batch accept
// up to MaxBatchItems requests in one HTTP exchange. Each is its
// singular endpoint function lifted by batchOf: the items fan across
// the server's persistent worker pool, every item runs exactly the code
// (validation order, status codes, caches) the singular endpoint runs,
// and one positional response array goes back.
//
// What a batch amortizes versus N sequential requests: N-1 HTTP
// round-trips with their per-request pipeline (ID, limiter, deadline
// context, trace, metrics) and N-1 body decodes and response encodes.

// MaxBatchItems bounds one batch request's item count. 256 items of the
// largest legitimate item shape stay well under MaxRequestBody, and a
// larger batch holds the concurrency limiter slot for too long.
const MaxBatchItems = 256

// Batch metrics: request/item volume and how many items failed.
var (
	batchRequests = metrics.GetCounter("fg_batch_requests_total",
		"Batch requests accepted on /predict/batch and /select/batch.")
	batchItems = metrics.GetCounter("fg_batch_items_total",
		"Items evaluated across all batch requests.")
	batchItemErrors = metrics.GetCounter("fg_batch_item_errors_total",
		"Batch items that answered with a per-item error.")
)

// BatchRequest carries up to MaxBatchItems singular requests.
type BatchRequest[Req any] struct {
	Items []Req `json:"items"`
}

// BatchItem is one item's outcome: exactly one of Response and Error is
// set. Error.Status is the HTTP status the singular endpoint would have
// answered with.
type BatchItem[Resp any] struct {
	Response *Resp     `json:"response,omitempty"`
	Error    *apiError `json:"error,omitempty"`
}

// BatchResponse answers one batch, positionally. StoreVersion is the
// snapshot version when the batch began; every item is served at that
// version or a later one and carries its own.
type BatchResponse[Resp any] struct {
	StoreVersion uint64            `json:"storeVersion"`
	Items        []BatchItem[Resp] `json:"items"`
}

// The wire types of the two batch endpoints.
type (
	PredictBatchRequest  = BatchRequest[PredictRequest]
	PredictBatchItem     = BatchItem[PredictResponse]
	PredictBatchResponse = BatchResponse[PredictResponse]
	SelectBatchRequest   = BatchRequest[SelectRequest]
	SelectBatchItem      = BatchItem[SelectResponse]
	SelectBatchResponse  = BatchResponse[SelectResponse]
)

// itemError renders one item's failure the way the singular endpoint
// would have: the same message with the same status code. Per-item
// envelopes carry no requestId — the batch's single ID rides the
// response header and identifies every item.
func itemError(err error) *apiError {
	batchItemErrors.Inc()
	return &apiError{Error: err.Error(), Status: errorStatus(err)}
}

// batchOf lifts a singular endpoint function to its batch form. Items
// are claimed in index order by at most Options.BatchParallelism
// workers; once ctx ends no further item is claimed. A batch that ctx
// left with an unanswered item — never claimed, or given up on
// mid-evaluation — fails as a whole with the ctx error, which endpoint
// answers as the request's 499/504 envelope like any other cut-short
// request. The positional response still comes back beside that error,
// every item the batch never evaluated marked with a distinct per-item
// 499 (departed client) or 504 (exhausted deadline), so a caller looking
// at a partial batch never sees items that silently look like empty
// successes. A batch whose every item completed succeeds even if ctx
// ended meanwhile.
func batchOf[Req, Resp any](s *Server, one func(context.Context, *Req) (Resp, error)) func(context.Context, *BatchRequest[Req]) (BatchResponse[Resp], error) {
	return func(ctx context.Context, req *BatchRequest[Req]) (BatchResponse[Resp], error) {
		n := len(req.Items)
		switch {
		case n == 0:
			return BatchResponse[Resp]{}, badRequest(errors.New("batch: items is empty"))
		case n > MaxBatchItems:
			return BatchResponse[Resp]{}, badRequest(
				fmt.Errorf("batch: %d items exceeds the limit of %d", n, MaxBatchItems))
		}
		batchRequests.Inc()
		batchItems.Add(float64(n))
		resp := BatchResponse[Resp]{
			StoreVersion: s.store.Snapshot().Version(),
			Items:        make([]BatchItem[Resp], n),
		}
		// A cut-short run shows below as ctx.Err() and unevaluated items.
		_ = s.batchPool.RunCtx(ctx, n, s.opts.BatchParallelism, func(i int) {
			item := &resp.Items[i]
			// The item's own spans (cache, rank, simulate) nest under its
			// "item" span, annotated with the positional index and the
			// outcome ("i=3 ok", "i=7 status=404").
			ictx, sp := reqtrace.StartSpan(ctx, "item")
			// The pool may have claimed this index just as the request
			// ended: answer the cancellation instead of computing an
			// answer nobody reads.
			err := ctx.Err()
			if err == nil {
				var out Resp
				if out, err = one(ictx, &req.Items[i]); err == nil {
					item.Response = &out
				}
			}
			if err != nil {
				item.Error = itemError(err)
			}
			if sp.Traced() {
				outcome := "ok"
				if err != nil {
					outcome = "status=" + strconv.Itoa(item.Error.Status)
				}
				sp.Annotate("i=" + strconv.Itoa(i) + " " + outcome)
				sp.End()
			}
		})
		cause := ctx.Err()
		if cause == nil {
			return resp, nil
		}
		// ctx ended while the batch ran: it cut the batch short if it left
		// any item unevaluated or answering the ctx error itself.
		var cut error
		for i := range resp.Items {
			item := &resp.Items[i]
			if item.Response == nil && item.Error == nil {
				item.Error = itemError(fmt.Errorf("batch: item not evaluated: %w", cause))
			}
			if item.Error != nil && item.Error.Status == errorStatus(cause) {
				cut = fmt.Errorf("batch: cut short: %w", cause)
			}
		}
		return resp, cut
	}
}
