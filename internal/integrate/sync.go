// Synchronization: syncTables diffs each answering source against its
// table's current version and publishes every table's insert/delete
// delta as one atomic MVCC commit. Under Sync with resilience enabled a
// source that does not answer falls back to the last successfully
// imported rows — marked stale —, so a sync degrades per source instead
// of failing whole: a dark ActivityBank leaves protein browsing fully
// live and activity queries answerable from stale rows.
package integrate

import (
	"context"
	"fmt"
	"sort"
	"time"

	"drugtree/internal/metrics"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// Resilience configures the fault-tolerant fetch path: retry/backoff
// policy, per-request timeout, and per-source circuit breakers. A nil
// Resilience on the importer means naive mode — one attempt per page,
// any source failure fails the whole sync (the ablation baseline).
type Resilience struct {
	Retry   source.RetryPolicy
	Timeout time.Duration
	// BreakerThreshold consecutive failures open a source's breaker;
	// BreakerCooldown later a probe is admitted.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock drives backoff sleeps, breaker cooldowns and freshness
	// ages; nil uses the wall clock.
	Clock netsim.Clock
	// Metrics receives breaker and retry counters when set.
	Metrics *metrics.Registry
}

// DefaultResilience is a sane production-shaped policy.
func DefaultResilience() Resilience {
	return Resilience{
		Retry:            source.DefaultRetry(),
		Timeout:          5 * time.Second,
		BreakerThreshold: 5,
		BreakerCooldown:  10 * time.Second,
	}
}

// EnableResilience switches the importer's Sync path to resilient
// mode, building one circuit breaker per source.
func (im *Importer) EnableResilience(r Resilience) {
	im.res = &r
	if r.Clock != nil {
		im.clock = r.Clock
	}
	im.breakers = make(map[string]*source.Breaker)
	for _, s := range im.Bundle.All() {
		im.breakers[s.Name()] = source.NewBreaker(
			s.Name(), r.BreakerThreshold, r.BreakerCooldown, im.clock, r.Metrics)
	}
}

// Breaker returns the named source's circuit breaker (nil when
// resilience is off).
func (im *Importer) Breaker(name string) *source.Breaker { return im.breakers[name] }

// SyncReport summarizes one Sync call.
type SyncReport struct {
	// Sources holds per-source outcomes in bundle order.
	Sources []SourceHealth
	// Fresh, Degraded and Failed count sources by outcome.
	Fresh, Degraded, Failed int
	RowsImported            int64
	RowsRejected            int64
	// RowsInserted and RowsDeleted count the physical delta the atomic
	// publish applied; rows unchanged since the last sync stay in place
	// and cost nothing.
	RowsInserted int64
	RowsDeleted  int64
}

// Degraded reports whether any source fell back to stale rows.
func (r *SyncReport) AnyDegraded() bool { return r.Degraded > 0 || r.Failed > 0 }

// fetchSource pulls one source through the configured resilience
// stack. In naive mode a page gets the legacy 5-attempt hot retry —
// no backoff, no timeout, no breaker.
func (im *Importer) fetchSource(ctx context.Context, s source.Source) ([]store.Row, error) {
	if im.res == nil {
		return source.FetchAllWith(ctx, s, nil, &source.FetchOptions{
			Retry: source.RetryPolicy{MaxAttempts: 5},
		})
	}
	return source.FetchAllWith(ctx, s, nil, &source.FetchOptions{
		Retry:   im.res.Retry,
		Timeout: im.res.Timeout,
		Breaker: im.breakers[s.Name()],
		Clock:   im.res.Clock,
		Metrics: im.res.Metrics,
	})
}

// encodeRowKey renders a whole row as canonical bytes for value-based
// diffing.
func encodeRowKey(r store.Row) string {
	buf := make([]byte, 0, 48)
	for _, v := range r {
		buf = store.AppendValue(buf, v)
	}
	return string(buf)
}

// diffTable stages, into o, the delta that turns spec's table into rows.
// Reference columns are first rewritten through resolvers (keyed by the
// referenced table); a row with an unresolvable reference is rejected.
// Matching is by whole-row value (a multiset, so duplicate rows pair
// off): a desired row identical to a current one keeps that row — and
// its row ID — in place, so an unchanged source costs an empty delta and
// no new table version, and an empty table takes the rows in source
// order. Nothing is applied here: the caller publishes every table's
// delta in one atomic CommitDeltas.
func (im *Importer) diffTable(o *syncOutcome, spec tableSpec, rows []store.Row, resolvers map[string]*Resolver) error {
	t, err := im.ensureTable(spec.table, spec.schema, spec.indexes)
	if err != nil {
		return err
	}
	cur := make(map[string][]int64)
	t.Scan(func(id int64, r store.Row) bool {
		k := encodeRowKey(r)
		cur[k] = append(cur[k], id)
		return true
	})
	n := len(spec.refs)
	refCols, against := make([]int, n), make([]*Resolver, n)
	for i, ref := range spec.refs {
		refCols[i], against[i] = spec.schema.ColumnIndex(ref.column), resolvers[ref.table]
	}
	canon, tiers := make([]string, n), make([]Tier, n)
	o.delta.Table = spec.table
rows:
	for _, r := range rows {
		for i, c := range refCols {
			var ok bool
			if canon[i], tiers[i], ok = against[i].Resolve(r[c].S); !ok {
				o.rejected++
				continue rows
			}
		}
		for i, c := range refCols {
			r[c] = store.StringValue(canon[i])
			o.tiers[tiers[i]]++
		}
		o.served++
		k := encodeRowKey(r)
		if ids := cur[k]; len(ids) > 0 {
			cur[k] = ids[1:] // unchanged: the existing row keeps serving
			continue
		}
		o.delta.Inserts = append(o.delta.Inserts, r)
	}
	for _, ids := range cur {
		o.delta.DeleteIDs = append(o.delta.DeleteIDs, ids...)
	}
	sort.Slice(o.delta.DeleteIDs, func(i, j int) bool { return o.delta.DeleteIDs[i] < o.delta.DeleteIDs[j] })
	return nil
}

// tableIDs reads the entity IDs currently served for a table — the
// degraded-mode resolver input when a source cannot be refreshed.
func (im *Importer) tableIDs(table, column string, schema *store.Schema) []string {
	t, err := im.DB.Table(table)
	if err != nil {
		return nil
	}
	ci := schema.ColumnIndex(column)
	var ids []string
	t.Scan(func(_ int64, r store.Row) bool {
		ids = append(ids, r[ci].S)
		return true
	})
	return ids
}

// markHealth records a source outcome and returns the health row.
func (im *Importer) markHealth(name string, status SyncStatus, rows int, ferr error) SourceHealth {
	now := im.clock.Now()
	im.mu.Lock()
	h := im.health[name]
	if h == nil {
		h = &SourceHealth{Source: name}
		im.health[name] = h
	}
	h.Status = status
	h.Stale = status != StatusFresh
	h.Rows = rows
	if ferr != nil {
		h.LastError = ferr.Error()
	} else {
		h.LastError = ""
	}
	if status == StatusFresh {
		h.LastGood = now
	}
	if b := im.breakers[name]; b != nil {
		h.BreakerState = b.State().String()
		h.BreakerTrips = b.Trips()
	}
	out := *h
	im.mu.Unlock()
	out.Age = now - out.LastGood
	return out
}

// tableLen returns the number of rows currently served for table.
func (im *Importer) tableLen(table string) int {
	t, err := im.DB.Table(table)
	if err != nil {
		return 0
	}
	return t.Len()
}

// syncOutcome accumulates one source's result between fetch and the
// atomic publish.
type syncOutcome struct {
	name, table      string
	ferr             error
	delta            store.TableDelta
	served, rejected int64
	tiers            [TierFuzzy + 1]int64 // references resolved, by tier
}

// syncTables is the one staging-and-publish path: for each relation of
// tableSpecs it fetches the source, resolves the rows' references and
// diffs them against the table's current version, then publishes every
// fresh table's delta in a single store.CommitDeltas — so readers,
// including snapshots pinned mid-sync, see either the complete old state
// or the complete new state, never a half-sync. All network-speed work
// (fetch, retry backoff, diffing) runs without any importer or store
// lock held; the only critical section is the O(changed rows) publish.
//
// A source that fails is an error, nothing published, unless degrade is
// set: then its table keeps its last-good rows (and keeps resolving the
// references of the tables after it), its outcome carries the fetch
// error, and the rest of the sync goes ahead.
func (im *Importer) syncTables(ctx context.Context, degrade bool) ([]*syncOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var outs []*syncOutcome
	resolvers := make(map[string]*Resolver)
	for _, spec := range tableSpecs {
		src := spec.source(im.Bundle)
		rows, ferr := im.fetchSource(ctx, src)
		if ferr != nil && !degrade {
			return nil, fmt.Errorf("integrate: sync %s: %w", src.Name(), ferr)
		}
		o := &syncOutcome{name: src.Name(), table: spec.table, ferr: ferr}
		outs = append(outs, o)
		if ferr == nil {
			if err := im.diffTable(o, spec, rows, resolvers); err != nil {
				return nil, err
			}
		}
		if spec.key == "" {
			continue
		}
		// Later tables resolve against what this one will serve after the
		// publish: the fetched rows, or the last-good ones.
		var ids []string
		if ferr == nil {
			ki := spec.schema.ColumnIndex(spec.key)
			for _, r := range rows {
				ids = append(ids, r[ki].S)
			}
		} else {
			ids = im.tableIDs(spec.table, spec.key, spec.schema)
		}
		resolvers[spec.table] = NewResolver(ids)
	}
	var deltas []store.TableDelta
	for _, o := range outs {
		if o.ferr == nil {
			deltas = append(deltas, o.delta)
		}
	}
	if err := im.DB.CommitDeltas(deltas); err != nil {
		return nil, err
	}
	return outs, nil
}

// Sync refreshes all integrated tables from the bundle as one MVCC
// commit (see syncTables).
//
// With resilience enabled, a source that is open-circuit or exhausts
// its retries keeps its last-good rows and is reported Degraded
// (Failed if it never synced); the sync itself still succeeds. Without
// resilience any source failure aborts the sync with an error before
// anything is published — the naive baseline T8 measures against.
// Health() readers are never blocked behind a slow source: the health
// map is only touched in brief updates after the publish.
func (im *Importer) Sync(ctx context.Context) (*SyncReport, error) {
	outs, err := im.syncTables(ctx, im.res != nil)
	if err != nil {
		return nil, err
	}

	// Health is recorded only after the publish lands, so the map never
	// advertises rows a reader cannot see yet.
	rep := &SyncReport{}
	for _, o := range outs {
		if o.ferr == nil {
			h := im.markHealth(o.name, StatusFresh, int(o.served), nil)
			rep.Sources = append(rep.Sources, h)
			rep.Fresh++
			rep.RowsImported += o.served
			rep.RowsRejected += o.rejected
			rep.RowsInserted += int64(len(o.delta.Inserts))
			rep.RowsDeleted += int64(len(o.delta.DeleteIDs))
			continue
		}
		status := StatusDegraded
		if im.tableLen(o.table) == 0 {
			status = StatusFailed
		}
		h := im.markHealth(o.name, status, im.tableLen(o.table), o.ferr)
		rep.Sources = append(rep.Sources, h)
		if status == StatusFailed {
			rep.Failed++
		} else {
			rep.Degraded++
		}
	}
	return rep, nil
}

// Health snapshots per-source freshness in bundle order, with ages
// computed against the importer's clock. Sources that have never
// synced are omitted.
func (im *Importer) Health() []SourceHealth {
	now := im.clock.Now()
	im.mu.Lock()
	defer im.mu.Unlock()
	var out []SourceHealth
	for _, s := range im.Bundle.All() {
		h := im.health[s.Name()]
		if h == nil {
			continue
		}
		cp := *h
		cp.Age = now - cp.LastGood
		if b := im.breakers[s.Name()]; b != nil {
			cp.BreakerState = b.State().String()
			cp.BreakerTrips = b.Trips()
		}
		out = append(out, cp)
	}
	return out
}
