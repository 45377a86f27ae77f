package query

import (
	"context"
	"sync"
)

// Parallelism at batch granularity, in one operator: the hash join
// drains its probe side and splits the batches into one contiguous
// chunk per worker (runtime.GOMAXPROCS(0) of them). Workers write into
// per-batch output slots, so concatenating the slots in order
// reproduces the serial probe's row sequence exactly, and runChunks
// reports the error of the first chunk that failed, which is the error
// the serial probe stops at. So the parallel probe is observationally
// identical to the serial one, in its rows and in its errors; the
// differential harness and TestEvalErrorsAgree assert this. Scans and
// aggregates run serially: experiment T7 measured no gain from
// splitting them.
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
// all workers before returning. The error of the first chunk in chunk
// order that failed wins — the one a serial pass over the chunks would
// have stopped at —; a context error inside fn should surface through
// fn's own canceller.
func runChunks(ctx context.Context, chunks []morselRange, fn func(w int, r morselRange) error) error {
	if len(chunks) == 0 {
		return nil
	}
	if len(chunks) == 1 {
		return fn(0, chunks[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(chunks))
	for w := range chunks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w, chunks[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
