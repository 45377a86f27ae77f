package query

import (
	"context"
	"sync"
)

// Parallelism at batch granularity: operators that materialize their
// input anyway (seq scans with residuals, the hash-join probe,
// aggregation) split the materialized batches into one contiguous
// chunk per worker. Workers write into per-batch output slots, so
// concatenating the slots in order reproduces the serial operator's
// row sequence exactly — parallel execution is observationally
// identical to Parallelism: 1, which is what the differential harness
// asserts.
//
// Cancellation: every worker and every serial drain loop polls its
// context through a canceller once per batch, so a context cancelled
// mid-scan or mid-join unwinds promptly with ctx.Err() and no goroutine
// outlives its operator — workers are always joined before the operator
// returns.

// canceller polls a context; operators call now once per batch (a
// channel select per row would dominate cheap operators).
type canceller struct {
	ctx context.Context
}

// now polls the context immediately.
func (c *canceller) now() error {
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}

// morselRange is one contiguous chunk of a materialized input.
type morselRange struct{ lo, hi int }

// splitChunks cuts [0, n) into at most k contiguous, near-equal
// ranges — one per worker.
func splitChunks(n, k int) []morselRange {
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	per := (n + k - 1) / k
	out := make([]morselRange, 0, k)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, morselRange{lo, hi})
	}
	return out
}

// runChunks runs fn once per chunk, one goroutine per chunk, joining
// all workers before returning. The first error wins; a context error
// inside fn should surface through fn's own canceller.
func runChunks(ctx context.Context, chunks []morselRange, fn func(w int, r morselRange) error) error {
	if len(chunks) == 0 {
		return nil
	}
	if len(chunks) == 1 {
		return fn(0, chunks[0])
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := range chunks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := fn(w, chunks[w]); err != nil {
				errOnce.Do(func() { firstErr = err })
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
