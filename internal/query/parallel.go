package query

import (
	"context"
	"sync"
	"sync/atomic"

	"drugtree/internal/store"
)

// Morsel-driven parallelism: operators that have to materialize their
// input anyway (seq scans with residuals, hash-join build/probe,
// aggregation) split the materialized rows into fixed-size morsels and
// hand them to a bounded worker pool. Workers write into per-morsel
// output slots, so concatenating the slots in morsel order reproduces
// the serial operator's row sequence exactly — parallel execution is
// observationally identical to Parallelism: 1, which is what the
// differential harness asserts.
//
// Cancellation: every worker and every serial drain loop polls its
// context through a canceller at morsel (or every cancelCheckRows
// rows) granularity, so a context cancelled mid-scan or mid-join
// unwinds promptly with ctx.Err() and no goroutine outlives its
// operator — workers are always joined before the operator returns.

// morselSize is the number of rows one worker claims at a time. Large
// enough to amortize scheduling, small enough to balance skew and
// bound cancellation latency.
const morselSize = 1024

// cancelCheckRows is how often tight per-row loops poll the context.
const cancelCheckRows = 256

// canceller polls a context every cancelCheckRows iterations (a
// channel select per row would dominate cheap operators).
type canceller struct {
	ctx  context.Context
	tick uint32
}

// check returns ctx.Err() once the context is done, polling every
// cancelCheckRows calls.
func (c *canceller) check() error {
	c.tick++
	if c.tick%cancelCheckRows != 0 {
		return nil
	}
	return c.now()
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

// splitMorsels cuts [0, n) into morselSize-sized ranges.
func splitMorsels(n int) []morselRange {
	if n == 0 {
		return nil
	}
	out := make([]morselRange, 0, (n+morselSize-1)/morselSize)
	for lo := 0; lo < n; lo += morselSize {
		hi := lo + morselSize
		if hi > n {
			hi = n
		}
		out = append(out, morselRange{lo, hi})
	}
	return out
}

// splitChunks cuts [0, n) into at most k contiguous, near-equal
// ranges — one per worker. Used where per-worker private state (hash
// maps, partial aggregation tables) makes coarse chunks cheaper than
// fine morsels.
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

// runMorsels dispatches the morsels of an n-row input to at most
// `workers` goroutines. fn processes one morsel; the first error (or
// context cancellation) stops the remaining morsels. All workers are
// joined before runMorsels returns, so no goroutine leaks even on
// cancellation.
func runMorsels(ctx context.Context, n, workers int, fn func(m int, r morselRange) error) error {
	morsels := splitMorsels(n)
	if len(morsels) == 0 {
		return nil
	}
	if workers > len(morsels) {
		workers = len(morsels)
	}
	if workers <= 1 {
		c := canceller{ctx: ctx}
		for m, r := range morsels {
			if err := c.now(); err != nil {
				return err
			}
			if err := fn(m, r); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     int64 = -1
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   int32
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := canceller{ctx: ctx}
			for {
				if atomic.LoadInt32(&failed) != 0 {
					return
				}
				if err := c.now(); err != nil {
					errOnce.Do(func() { firstErr = err })
					atomic.StoreInt32(&failed, 1)
					return
				}
				m := int(atomic.AddInt64(&next, 1))
				if m >= len(morsels) {
					return
				}
				if err := fn(m, morsels[m]); err != nil {
					errOnce.Do(func() { firstErr = err })
					atomic.StoreInt32(&failed, 1)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// parallelFilter applies an optional residual predicate to rows on the
// worker pool. Output preserves input order (per-morsel slots
// concatenated in morsel order), matching the serial scan exactly.
// Rows must be safe for shared concurrent reads and the caller's to
// hand on (a table snapshot's rows are its own copies).
func parallelFilter(ctx context.Context, rows []store.Row, residual *boundExpr, workers int) ([]store.Row, error) {
	slots := make([][]store.Row, len(splitMorsels(len(rows))))
	err := runMorsels(ctx, len(rows), workers, func(m int, r morselRange) error {
		c := canceller{ctx: ctx}
		out := make([]store.Row, 0, r.hi-r.lo)
		for _, row := range rows[r.lo:r.hi] {
			if err := c.check(); err != nil {
				return err
			}
			if residual != nil {
				ok, err := residual.evalBool(row)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			out = append(out, row)
		}
		slots[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range slots {
		total += len(s)
	}
	out := make([]store.Row, 0, total)
	for _, s := range slots {
		out = append(out, s...)
	}
	return out, nil
}

// drainAll materializes an iterator, polling ctx between rows.
func drainAll(ctx context.Context, in iterator) ([]store.Row, error) {
	c := canceller{ctx: ctx}
	var rows []store.Row
	for {
		if err := c.check(); err != nil {
			return nil, err
		}
		r, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, r)
	}
}

// --- Parallel hash join ---

// buildHashTableParallel builds the join hash table over the build
// side on the worker pool: each worker hashes one contiguous chunk
// into a private map, then the chunk maps are merged in chunk order,
// so per-key row lists keep build-input order (identical to the
// serial build).
func buildHashTableParallel(ctx context.Context, rows []store.Row, keys []*boundExpr, workers int) (map[uint64][]store.Row, error) {
	if workers > len(rows) {
		workers = len(rows)
	}
	if workers < 1 {
		workers = 1
	}
	chunks := make([]map[uint64][]store.Row, workers)
	orders := make([][]uint64, workers) // first-seen hash order per chunk
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	per := (len(rows) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(rows) {
			hi = len(rows)
		}
		if lo >= hi {
			chunks[w] = map[uint64][]store.Row{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			c := canceller{ctx: ctx}
			part := make(map[uint64][]store.Row)
			var order []uint64
			for _, r := range rows[lo:hi] {
				if err := c.check(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				h, valid, err := hashKeys(keys, r)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if !valid {
					continue
				}
				if _, seen := part[h]; !seen {
					order = append(order, h)
				}
				part[h] = append(part[h], r)
			}
			chunks[w] = part
			orders[w] = order
		}(w, lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	table := make(map[uint64][]store.Row)
	for w, part := range chunks {
		for _, h := range orders[w] {
			table[h] = append(table[h], part[h]...)
		}
	}
	return table, nil
}

// parallelHashJoinProbe probes the hash table with the morsels of the
// probe side, emitting joined rows in the serial order (probe order,
// then build-insertion order per key).
func parallelHashJoinProbe(ctx context.Context, probe []store.Row, table map[uint64][]store.Row, probeKeys []*boundExpr, residual *boundExpr, stats *ExecStats, workers int) ([]store.Row, error) {
	slots := make([][]store.Row, len(splitMorsels(len(probe))))
	err := runMorsels(ctx, len(probe), workers, func(m int, mr morselRange) error {
		c := canceller{ctx: ctx}
		var out []store.Row
		var joined int64
		for _, l := range probe[mr.lo:mr.hi] {
			if err := c.check(); err != nil {
				return err
			}
			h, valid, err := hashKeys(probeKeys, l)
			if err != nil {
				return err
			}
			if !valid {
				continue
			}
			for _, r := range table[h] {
				row := make(store.Row, 0, len(l)+len(r))
				row = append(row, l...)
				row = append(row, r...)
				if residual != nil {
					ok, err := residual.evalBool(row)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				joined++
				out = append(out, row)
			}
		}
		atomic.AddInt64(&stats.RowsJoined, joined)
		slots[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range slots {
		total += len(s)
	}
	out := make([]store.Row, 0, total)
	for _, s := range slots {
		out = append(out, s...)
	}
	return out, nil
}

// newParallelHashJoin materializes both sides, builds the partitioned
// table, and probes on the pool. The result streams from a sliceIter,
// so downstream operators are unchanged.
func newParallelHashJoin(ec *execCtx, left, right iterator, leftKeys, rightKeys []*boundExpr, residual *boundExpr, op *OpStats) (iterator, error) {
	build, err := drainAll(ec.ctx, right)
	if err != nil {
		return nil, err
	}
	table, err := buildHashTableParallel(ec.ctx, build, rightKeys, ec.para)
	if err != nil {
		return nil, err
	}
	probe, err := drainAll(ec.ctx, left)
	if err != nil {
		return nil, err
	}
	out, err := parallelHashJoinProbe(ec.ctx, probe, table, leftKeys, residual, ec.stats, ec.para)
	if err != nil {
		return nil, err
	}
	op.addIn(int64(len(probe)))
	op.addOut(int64(len(out)))
	return &sliceIter{rows: out, cancel: canceller{ctx: ec.ctx}}, nil
}
