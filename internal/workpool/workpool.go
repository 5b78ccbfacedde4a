// Package workpool provides a persistent, bounded worker pool for
// fanning an indexed batch of independent tasks across goroutines
// without per-call goroutine and channel setup.
//
// The design goal is the serve hot path: ranking rounds and batch
// endpoints fan out small units of pure arithmetic thousands of times a
// second, so spawning a fresh goroutine pool per call (the previous
// grid.Selector.Rank shape) costs more than the work itself. A Pool
// instead keeps its workers parked on one channel for the process
// lifetime and hands them batches:
//
//   - Run never blocks waiting for a free worker to start. The
//     submitting goroutine always participates in its own batch, and
//     helper workers are recruited with non-blocking sends — if every
//     worker is busy, the submitter works through the batch alone. But
//     a recruiting token that fits in the channel's buffer counts as a
//     helper at once, and the batch then waits for it to be taken, so
//     nested Run calls (a batch item that itself fans out a ranking
//     round) can deadlock when every worker is parked inside an inner
//     batch. ROADMAP.md's item "A nested workpool.Run can deadlock"
//     records the hazard and a measured fix.
//   - Work is claimed by atomic index increments on the shared batch,
//     so tasks need no per-task allocation and workers load-balance at
//     task granularity.
//   - A batch's task order is by ascending index with results written
//     wherever fn puts them, so output is deterministic regardless of
//     how many workers the pool recruited.
package workpool

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"freerideg/internal/reqtrace"
)

// batch is one Run call's shared work descriptor. Workers claim indices
// [0, n) by incrementing next; wg counts recruited helpers. ctx, when it
// becomes done, stops workers from claiming further indices — indices
// already claimed always run to completion, so fn never observes a
// half-abandoned unit.
type batch struct {
	next atomic.Int64
	n    int64
	fn   func(i int)
	ctx  context.Context
	wg   sync.WaitGroup
}

func (b *batch) drain() {
	for {
		if b.ctx.Err() != nil {
			return
		}
		i := b.next.Add(1) - 1
		if i >= b.n {
			return
		}
		b.fn(int(i))
	}
}

// Pool is a persistent bounded worker pool. The zero value is not
// usable; use New. Workers are started lazily on the first Run that
// wants helpers and live for the lifetime of the process.
type Pool struct {
	tokens chan *batch
	size   int
	once   sync.Once
}

// New returns a pool of n persistent workers; n < 1 selects
// GOMAXPROCS. No goroutines start until the first parallel Run.
func New(n int) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{tokens: make(chan *batch, n), size: n}
}

// Size reports the pool's worker count.
func (p *Pool) Size() int { return p.size }

func (p *Pool) start() {
	for i := 0; i < p.size; i++ {
		go func() {
			for b := range p.tokens {
				b.drain()
				b.wg.Done()
			}
		}()
	}
}

// Run executes fn(0), fn(1), …, fn(n-1) and returns when all calls have
// completed. limit bounds how many goroutines (including the caller)
// may work on this batch concurrently; limit <= 1 runs strictly serial
// on the calling goroutine, limit < 1 or > pool size is clamped to pool
// size + 1. fn must be safe for concurrent invocation with distinct
// indices.
func (p *Pool) Run(n, limit int, fn func(i int)) {
	_ = p.RunCtx(context.Background(), n, limit, fn)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, no
// goroutine working the batch claims another index. Indices claimed
// before the cancellation landed still run to completion, and RunCtx
// returns only after every claimed call has finished — so fn results
// written for claimed indices are always complete when RunCtx returns.
// The returned error is ctx.Err() when the batch was cut short (some
// index never ran), nil when every index completed.
func (p *Pool) RunCtx(ctx context.Context, n, limit int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	// On a traced request the fan-out gets one span covering the whole
	// batch (per-item spans are the caller's concern — only it knows
	// what an item means). Untraced, Child is a free no-op.
	sp := reqtrace.Child(ctx, "workpool")
	err := p.runCtx(ctx, n, limit, fn)
	if sp.Traced() {
		note := "n=" + strconv.Itoa(n)
		if err != nil {
			note += " cut-short"
		}
		sp.Annotate(note)
	}
	sp.End()
	return err
}

func (p *Pool) runCtx(ctx context.Context, n, limit int, fn func(i int)) error {
	if limit == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	helpers := p.size
	if limit > 1 && limit-1 < helpers {
		helpers = limit - 1
	}
	if helpers > n-1 {
		helpers = n - 1
	}
	if helpers <= 0 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	p.once.Do(p.start)
	b := &batch{n: int64(n), fn: fn, ctx: ctx}
	for h := 0; h < helpers; h++ {
		b.wg.Add(1)
		select {
		case p.tokens <- b:
			continue
		default:
		}
		// Every worker is busy: give the token back and stop
		// recruiting. The caller drains whatever remains.
		b.wg.Done()
		break
	}
	b.drain()
	b.wg.Wait()
	// The batch was cut short only if cancellation landed before the
	// last index was claimed; a batch whose claims all happened before
	// ctx fired completed normally.
	if b.next.Load() < b.n && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}
