package query

import (
	"sync/atomic"

	"drugtree/internal/store"
)

// Merge join: when both join inputs are base-table scans whose single
// equi-join columns carry B+-tree indexes, the executor reads both
// sides in key order straight off the indexes and merges — no hash
// table, no sort. The physical planner (buildJoin) selects it; the
// operator itself works over any two key-ordered row streams.

// mergeJoinable reports whether the join can run as an index merge
// join and returns the scan nodes and key column names.
func mergeJoinable(n *JoinNode, leftKeys, rightKeys []*boundExpr, ec *execCtx) (l, r *ScanNode, lcol, rcol string, ok bool) {
	if len(leftKeys) != 1 || !ec.opts.UseIndexes {
		return nil, nil, "", "", false
	}
	ls, lok := n.Left.(*ScanNode)
	rs, rok := n.Right.(*ScanNode)
	// Narrowed scans stay on the hash join: the merge inputs are read
	// whole, in index order, and address the key by table column.
	if !lok || !rok || ls.proj != nil || rs.proj != nil {
		return nil, nil, "", "", false
	}
	lref, lok := leftKeys[0].src.(*ColumnRef)
	rref, rok := rightKeys[0].src.(*ColumnRef)
	if !lok || !rok {
		return nil, nil, "", "", false
	}
	lt, err := ec.cat.Table(ls.Table)
	if err != nil {
		return nil, nil, "", "", false
	}
	rt, err := ec.cat.Table(rs.Table)
	if err != nil {
		return nil, nil, "", "", false
	}
	if typ, has := lt.HasIndex(lref.Name); !has || typ != store.IndexBTree {
		return nil, nil, "", "", false
	}
	if typ, has := rt.HasIndex(rref.Name); !has || typ != store.IndexBTree {
		return nil, nil, "", "", false
	}
	return ls, rs, lref.Name, rref.Name, true
}

// buildOrderedScan materializes a scan's rows in key order via the
// B+-tree index, applying every pushed conjunct as a residual filter
// (filtering preserves order).
func buildOrderedScan(n *ScanNode, col string, ec *execCtx, depth int) (iterator, int, error) {
	tv, err := ec.view(n.Table)
	if err != nil {
		return nil, 0, err
	}
	rows, _, err := tv.GatherRows(ec.ctx, store.Access{Column: col})
	if err != nil {
		return nil, 0, err
	}
	atomic.AddInt64(&ec.stats.RowsIndexed, int64(len(rows)))
	op := ec.note(depth, "OrderedIndexScan %s (by %s)%s", n.Table, col,
		residualNote(accessPath{residual: n.Conjuncts}))
	op.addIn(int64(len(rows)))
	var residual *boundExpr
	if len(n.Conjuncts) > 0 {
		be, err := bind(joinConjuncts(n.Conjuncts), ec.env(n.schema))
		if err != nil {
			return nil, 0, err
		}
		residual = be
	}
	keyIdx := tv.Table().Schema().ColumnIndex(col)
	return &sliceIter{rows: rows, residual: residual, stats: ec.stats, cancel: canceller{ctx: ec.ctx}, op: op}, keyIdx, nil
}

// mergeJoinIter merges two key-ordered inputs on one key column each,
// emitting the cross product of equal-key blocks.
type mergeJoinIter struct {
	left, right  iterator
	lkIdx, rkIdx int
	residual     *boundExpr
	stats        *ExecStats
	cancel       canceller
	op           *OpStats

	lRow    store.Row
	lValid  bool
	started bool

	// Right-side block buffering: rows sharing the current key.
	rBlock   []store.Row
	rBlockAt int
	rNext    store.Row // lookahead past the block
	rEOF     bool

	emitPos int
}

func newMergeJoin(left, right iterator, lkIdx, rkIdx int, residual *boundExpr, ec *execCtx, op *OpStats) (*mergeJoinIter, error) {
	return &mergeJoinIter{
		left: left, right: right,
		lkIdx: lkIdx, rkIdx: rkIdx,
		residual: residual, stats: ec.stats,
		cancel: canceller{ctx: ec.ctx}, op: op,
	}, nil
}

func (m *mergeJoinIter) advanceLeft() error {
	r, ok, err := m.left.Next()
	if err != nil {
		return err
	}
	if ok {
		m.op.addIn(1)
	}
	m.lRow, m.lValid = r, ok
	return nil
}

// readRight returns the next right row, honoring lookahead.
func (m *mergeJoinIter) readRight() (store.Row, bool, error) {
	if m.rNext != nil {
		r := m.rNext
		m.rNext = nil
		return r, true, nil
	}
	if m.rEOF {
		return nil, false, nil
	}
	r, ok, err := m.right.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		m.rEOF = true
	}
	return r, ok, nil
}

// loadBlockFor fills rBlock with right rows equal to key, consuming
// rows below key. Returns false when no right rows match.
func (m *mergeJoinIter) loadBlockFor(key store.Value) (bool, error) {
	// Reuse the current block when the key matches (classic merge
	// join duplicate-left handling).
	if len(m.rBlock) > 0 && store.Equal(m.rBlock[0][m.rkIdx], key) {
		return true, nil
	}
	m.rBlock = m.rBlock[:0]
	for {
		r, ok, err := m.readRight()
		if err != nil {
			return false, err
		}
		if !ok {
			return len(m.rBlock) > 0, nil
		}
		c := store.Compare(r[m.rkIdx], key)
		switch {
		case c < 0:
			continue // skip below-key rows
		case c == 0:
			m.rBlock = append(m.rBlock, r)
		default:
			if len(m.rBlock) == 0 {
				// Right ran ahead: stash and report no match.
				m.rNext = r
				return false, nil
			}
			m.rNext = r
			return true, nil
		}
	}
}

func (m *mergeJoinIter) Next() (store.Row, bool, error) {
	for {
		if err := m.cancel.check(); err != nil {
			return nil, false, err
		}
		if !m.started {
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
			m.started = true
		}
		if !m.lValid {
			return nil, false, nil
		}
		key := m.lRow[m.lkIdx]
		if key.IsNull() {
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		matched, err := m.loadBlockFor(key)
		if err != nil {
			return nil, false, err
		}
		if !matched {
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
			continue
		}
		if m.emitPos < len(m.rBlock) {
			right := m.rBlock[m.emitPos]
			m.emitPos++
			out := make(store.Row, 0, len(m.lRow)+len(right))
			out = append(out, m.lRow...)
			out = append(out, right...)
			if m.residual != nil {
				ok, err := m.residual.evalBool(out)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue
				}
			}
			atomic.AddInt64(&m.stats.RowsJoined, 1)
			m.op.addOut(1)
			return out, true, nil
		}
		m.emitPos = 0
		if err := m.advanceLeft(); err != nil {
			return nil, false, err
		}
	}
}
