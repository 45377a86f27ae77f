// Fixture: the vectorized executor's batch-granularity cancellation
// contract (ctxcheck's "batchpoll" rule). A nextBatch method must
// poll cancellation once per batch, directly or by delegation.
package batch

type batch struct{}

type canceller struct{}

func (c *canceller) now() error   { return nil }
func (c *canceller) check() error { return nil }

// Polling directly via now() satisfies the rule.
type scanner struct{ cancel canceller }

func (s *scanner) nextBatch() (*batch, error) {
	if err := s.cancel.now(); err != nil {
		return nil, err
	}
	return nil, nil
}

// Amortized polling via check() is also sanctioned.
type checker struct{ cancel canceller }

func (c *checker) nextBatch() (*batch, error) {
	if err := c.cancel.check(); err != nil {
		return nil, err
	}
	return nil, nil
}

// Delegating to another batch iterator inherits its polling.
type wrapper struct{ in *scanner }

func (w *wrapper) nextBatch() (*batch, error) { return w.in.nextBatch() }

// A nextBatch that neither polls nor delegates pins the query.
type rogue struct{ batches []*batch }

func (r *rogue) nextBatch() (*batch, error) { // want `nextBatch does not poll cancellation`
	if len(r.batches) == 0 {
		return nil, nil
	}
	b := r.batches[0]
	r.batches = r.batches[1:]
	return b, nil
}

// Other methods on batch operators are out of scope.
func (r *rogue) reset() {}

// lazyScan is the executor's vecScan with its per-batch poll removed
// (internal/query/physical_vec.go): it neither polls nor delegates,
// and the query package's tests, its cancellation tests included, still
// pass.
type lazyScan struct {
	cancel  canceller
	batches []*batch
	pos     int
}

func (s *lazyScan) load() error { return nil }

func (s *lazyScan) nextBatch() (*batch, error) { // want `nextBatch does not poll cancellation`
	if err := s.load(); err != nil {
		return nil, err
	}
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}
