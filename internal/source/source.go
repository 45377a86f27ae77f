// Package source simulates the remote heterogeneous data services the
// original DrugTree system integrated (UniProt/ChEMBL/BindingDB-style
// web services). Each source serves one dataset slice behind a
// netsim.Link so every fetch pays realistic request latency and
// bandwidth-proportional transfer cost, and each source advertises
// which predicates it can evaluate server-side — the capability matrix
// the optimizer's pushdown rule consults.
package source

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"drugtree/internal/netsim"
	"drugtree/internal/store"
)

// FilterOp enumerates predicate operators a source may support.
type FilterOp uint8

const (
	OpEQ FilterOp = iota
	OpLT
	OpLE
	OpGT
	OpGE
)

func (op FilterOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	}
	return "?"
}

// Eval applies the operator to a row value and a constant.
func (op FilterOp) Eval(v, c store.Value) bool {
	if v.IsNull() || c.IsNull() {
		return false
	}
	cmp := store.Compare(v, c)
	switch op {
	case OpEQ:
		return cmp == 0
	case OpLT:
		return cmp < 0
	case OpLE:
		return cmp <= 0
	case OpGT:
		return cmp > 0
	case OpGE:
		return cmp >= 0
	}
	return false
}

// Filter is one pushable predicate: column op value.
type Filter struct {
	Column string
	Op     FilterOp
	Value  store.Value
}

func (f Filter) String() string {
	return fmt.Sprintf("%s %v %v", f.Column, f.Op, f.Value)
}

// Request describes one page fetch.
type Request struct {
	// Filters are predicates the caller wants evaluated server-side.
	// Every filter must be supported (see Source.CanFilter); an
	// unsupported filter is an error, forcing callers to make
	// pushdown decisions explicitly.
	Filters []Filter
	// Offset/Limit page through the (filtered) result. Limit 0 means
	// the source's default page size.
	Offset int
	Limit  int
}

// Result is one fetched page.
type Result struct {
	Rows []store.Row
	// Total is the total number of matching rows (so callers can plan
	// pagination).
	Total int
	// BytesOnWire is the modelled response size.
	BytesOnWire int64
	// Elapsed is the modelled network time charged for this fetch.
	Elapsed time.Duration
}

// ErrTransient is the (wrapped) error simulated sources return for
// injected transient failures — the 5xx/timeout class a real web
// service produces. Callers retry on it; see FetchAll.
var ErrTransient = errors.New("source: transient failure (simulated)")

// Source is a simulated remote data service.
type Source interface {
	// Name identifies the source in plans and metrics.
	Name() string
	// Schema describes the rows the source returns.
	Schema() *store.Schema
	// CanFilter reports whether the source evaluates column/op
	// predicates server-side.
	CanFilter(column string, op FilterOp) bool
	// Fetch returns one page of rows matching the request filters.
	// The context is checked before the request is charged; a
	// cancelled context fails without touching the link.
	Fetch(ctx context.Context, req Request) (*Result, error)
	// Stats reports cumulative traffic.
	Stats() Stats
	// ResetStats zeroes the traffic counters.
	ResetStats()
	// SetFailureRate injects transient failures: each Fetch fails
	// with probability pct (deterministic under the source's seed).
	SetFailureRate(pct float64)
	// SetFaultPlan installs a scripted fault schedule (outages,
	// brownouts, error bursts) evaluated against Clock; nil clears it.
	SetFaultPlan(p *FaultPlan)
	// SetClock overrides the timeline the fault plan and retry
	// backoff read; nil restores the link-backed default.
	SetClock(c netsim.Clock)
	// Clock returns the source's timeline.
	Clock() netsim.Clock
}

// Stats is cumulative per-source traffic accounting.
type Stats struct {
	Requests  int64
	RowsMoved int64
	BytesUp   int64
	BytesDown int64
	// Failures counts injected transient failures served.
	Failures int64
	Elapsed  time.Duration
}

// capability keys the support matrix.
type capability struct {
	column string
	op     FilterOp
}

// bank is the shared implementation of all simulated sources: n records
// read in place from the dataset (fill writes record i's cells into a
// caller's row), a link and a capability matrix. Mutable state (stats,
// failure knobs, random streams) is guarded by mu so one bank can serve
// concurrent fetchers race-free.
type bank struct {
	name   string
	schema *store.Schema
	n      int
	fill   func(i int, dst store.Row)
	link   *netsim.Link
	caps   map[capability]bool

	mu      sync.Mutex
	failPct float64
	failRng *rand.Rand
	plan    *FaultPlan
	planRng *rand.Rand
	clock   netsim.Clock
	stats   Stats
}

// requestOverheadBytes approximates the HTTP/query envelope of one
// request; responseOverheadBytes the response framing.
const (
	requestOverheadBytes  = 220
	responseOverheadBytes = 160
)

func newBank(name string, schema *store.Schema, link *netsim.Link, n int, fill func(i int, dst store.Row)) *bank {
	return &bank{
		name:    name,
		schema:  schema,
		n:       n,
		fill:    fill,
		link:    link,
		caps:    make(map[capability]bool),
		failRng: rand.New(rand.NewSource(int64(len(name)) * 7919)),
	}
}

// SetFailureRate implements Source.
func (b *bank) SetFailureRate(pct float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failPct = pct
}

// SetFaultPlan implements Source. The plan's burst coin flips are
// reseeded so installing the same plan replays the same faults.
func (b *bank) SetFaultPlan(p *FaultPlan) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.plan = p
	if p != nil {
		b.planRng = rand.New(rand.NewSource(p.Seed ^ int64(len(b.name))))
	} else {
		b.planRng = nil
	}
}

// SetClock implements Source.
func (b *bank) SetClock(c netsim.Clock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = c
}

// Clock implements Source: the override if set, else the link-backed
// timeline.
func (b *bank) Clock() netsim.Clock {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.clock != nil {
		return b.clock
	}
	return netsim.LinkClock(b.link)
}

func (b *bank) allow(column string, ops ...FilterOp) {
	for _, op := range ops {
		b.caps[capability{column, op}] = true
	}
}

func (b *bank) Name() string          { return b.name }
func (b *bank) Schema() *store.Schema { return b.schema }

func (b *bank) CanFilter(column string, op FilterOp) bool {
	return b.caps[capability{column, op}]
}

func (b *bank) Fetch(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Validate filters against schema and capabilities.
	for _, f := range req.Filters {
		ci := b.schema.ColumnIndex(f.Column)
		if ci < 0 {
			return nil, fmt.Errorf("source %s: no column %q", b.name, f.Column)
		}
		if !b.CanFilter(f.Column, f.Op) {
			return nil, fmt.Errorf("source %s: cannot evaluate %v server-side", b.name, f)
		}
	}
	if req.Offset < 0 {
		return nil, fmt.Errorf("source %s: negative offset", b.name)
	}
	// Consult the fault schedule and failure knob. The decision is
	// made under the lock; the link charge happens outside it.
	now := b.Clock().Now()
	b.mu.Lock()
	fail := false
	slow := 1.0
	if w := b.plan.active(now); w != nil {
		switch w.Mode {
		case FaultOutage:
			fail = true
		case FaultErrorBurst:
			fail = b.planRng.Float64() < w.ErrorPct
		case FaultBrownout:
			if w.SlowFactor > 1 {
				slow = w.SlowFactor
			}
		}
	}
	if !fail && b.failPct > 0 && b.failRng.Float64() < b.failPct {
		fail = true
	}
	b.mu.Unlock()
	// Injected failure: the request still costs a round trip (with a
	// small error body) before the caller can retry.
	if fail {
		elapsed := b.link.RequestCost(requestOverheadBytes, responseOverheadBytes)
		b.mu.Lock()
		b.stats.Requests++
		b.stats.Failures++
		b.stats.BytesUp += requestOverheadBytes
		b.stats.BytesDown += responseOverheadBytes
		b.stats.Elapsed += elapsed
		b.mu.Unlock()
		return nil, fmt.Errorf("source %s: %w", b.name, ErrTransient)
	}
	limit := req.Limit
	if limit <= 0 {
		limit = defaultPageSize
	}

	// Server-side evaluation: every match is counted into total, and
	// only the records of [Offset, Offset+limit) get rows, built fresh
	// for the caller. With no filter every record matches, so the page
	// is a window of them, cut from one slab of cells (each row's
	// capacity its width, so appending to one cannot reach the next);
	// with filters each record is tested in one scratch row.
	var page []store.Row
	total := 0
	w := len(b.schema.Columns)
	if len(req.Filters) == 0 {
		total = b.n
		lo := min(req.Offset, total)
		page = make([]store.Row, min(lo+limit, total)-lo)
		cells := make([]store.Value, len(page)*w)
		for k := range page {
			page[k] = cells[k*w : (k+1)*w : (k+1)*w]
			b.fill(lo+k, page[k])
		}
	} else {
		cols := make([]int, len(req.Filters))
		for k, f := range req.Filters {
			cols[k] = b.schema.ColumnIndex(f.Column)
		}
		page = make([]store.Row, 0, min(limit, b.n))
		scratch := make(store.Row, w)
		for i := range b.n {
			b.fill(i, scratch)
			ok := true
			for k, f := range req.Filters {
				if !f.Op.Eval(scratch[cols[k]], f.Value) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if total >= req.Offset && total-req.Offset < limit {
				page = append(page, slices.Clone(scratch))
			}
			total++
		}
	}

	// Charge the link.
	respBytes := int64(responseOverheadBytes)
	for _, r := range page {
		respBytes += int64(store.EncodedRowSize(r))
	}
	reqBytes := int64(requestOverheadBytes + 24*len(req.Filters))
	elapsed := b.link.RequestCost(reqBytes, respBytes)
	if slow > 1 {
		// Brownout: the response crawls in. The penalty is charged to
		// the link timeline so simulated clocks advance consistently.
		penalty := time.Duration(float64(elapsed) * (slow - 1))
		b.link.Advance(penalty)
		elapsed += penalty
	}

	b.mu.Lock()
	b.stats.Requests++
	b.stats.RowsMoved += int64(len(page))
	b.stats.BytesUp += reqBytes
	b.stats.BytesDown += respBytes
	b.stats.Elapsed += elapsed
	b.mu.Unlock()
	return &Result{Rows: page, Total: total, BytesOnWire: respBytes, Elapsed: elapsed}, nil
}

func (b *bank) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

func (b *bank) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats = Stats{}
}

// FetchAll drains every page matching the filters, retrying each page
// on transient failures with the default backoff policy (sleeping on
// the source's clock between attempts, so simulated timelines advance
// instantly). It is the helper wrappers use when the plan pulls a
// whole (filtered) relation; FetchAllWith adds timeouts and a circuit
// breaker on top.
func FetchAll(ctx context.Context, s Source, filters []Filter) ([]store.Row, error) {
	return FetchAllWith(ctx, s, filters, &FetchOptions{Retry: DefaultRetry()})
}
