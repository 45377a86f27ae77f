package main

import (
	"context"
	"fmt"
	"math"

	"drugtree/internal/core"
	"drugtree/internal/mobile"
	"drugtree/internal/store"
)

// Output checks. They run in the check round and between rounds, never
// inside a timed window; each failure counts as a failed op.

// canonRow encodes a row with floats rounded to 10 significant digits
// (as experiment T11 does): the coordinator's partial-aggregate merge
// and the overlay's exact sum both reassociate float addition, so the
// last bits legitimately differ from a sequential scan.
func canonRow(r store.Row) string {
	var b []byte
	for _, v := range r {
		if v.K == store.KindFloat {
			b = append(b, fmt.Sprintf("|%.9e", v.F)...)
			continue
		}
		b = append(b, '|')
		b = store.AppendValue(b, v)
	}
	return string(b)
}

// sameMultiset reports whether two results hold the same rows.
func sameMultiset(got, want []store.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, oracle %d", len(got), len(want))
	}
	counts := make(map[string]int, len(want))
	for _, r := range want {
		counts[canonRow(r)]++
	}
	for _, r := range got {
		k := canonRow(r)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Errorf("row %s not in the oracle's answer (%d rows each)", k, len(want))
		}
	}
	return nil
}

// checkReply returns the per-reply check of the check round: a Query
// reply must equal the single-node oracle's answer at the same version
// (one client, so nothing commits between the two), and after an Open
// the client's node set must be the viewport BuildViewport computes.
func (r *runner) checkReply(ctx context.Context) func(s *session, o op, reply any) error {
	return func(s *session, o op, reply any) error {
		switch o.Kind {
		case opQuery:
			want, err := r.fx.ref.Query(ctx, o.Text)
			if err != nil {
				return fmt.Errorf("oracle: %w", err)
			}
			if err := sameMultiset(reply.(*mobile.QueryResult).Rows, want.Rows); err != nil {
				return fmt.Errorf("%s: %w", o.Text, err)
			}
		case opOpen:
			id, err := r.fx.eng.NodeByName(o.Text)
			if err != nil {
				return fmt.Errorf("open %s: %w", o.Text, err)
			}
			want := mobile.BuildViewport(r.fx.eng, id, lodBudget)
			if len(want) != len(s.cl.Nodes) {
				return fmt.Errorf("open %s: client holds %d nodes, viewport has %d", o.Text, len(s.cl.Nodes), len(want))
			}
			for _, n := range want {
				if _, ok := s.cl.Nodes[n.Pre]; !ok {
					return fmt.Errorf("open %s: client lacks node pre=%d", o.Text, n.Pre)
				}
			}
		}
		return nil
	}
}

// checkIngestRound verifies the state an ingest round left behind: the
// incrementally maintained overlay equals a from-scratch rebuild bit
// for bit, the activities row count is start + inserts − deletes, and
// no snapshot pin outlived the session.
func (r *runner) checkIngestRound(ctx context.Context) []error {
	var errs []error
	if n, err := overlayDivergence(r.fx); err != nil {
		errs = append(errs, err)
	} else if n != 0 {
		errs = append(errs, fmt.Errorf("overlay diverged from a rebuild on %d nodes", n))
	}
	res, err := r.fx.ref.Query(ctx, "SELECT COUNT(*) FROM activities")
	switch want := r.churn.startRows + r.churn.inserted - r.churn.deleted; {
	case err != nil:
		errs = append(errs, fmt.Errorf("count activities: %w", err))
	case len(res.Rows) != 1 || res.Rows[0][0].I != want:
		errs = append(errs, fmt.Errorf("activities holds %v rows, want %d", res.Rows, want))
	}
	if n := r.fx.db.ActiveSnapshots(); n != 0 {
		errs = append(errs, fmt.Errorf("%d snapshot pins outstanding at rest", n))
	}
	return errs
}

// overlayDivergence counts the tree nodes on which the live overlay
// and core.RebuildActivityOverlay disagree at the current version.
func overlayDivergence(fx *fixture) (int, error) {
	snap := fx.db.PinSnapshot()
	defer snap.Release()
	rebuilt, err := core.RebuildActivityOverlay(snap, fx.eng.Tree())
	if err != nil {
		return 0, fmt.Errorf("rebuild overlay: %w", err)
	}
	live := fx.eng.Overlay()
	if live.Version() != rebuilt.Version() {
		return 0, fmt.Errorf("live overlay at version %d, rebuild at %d", live.Version(), rebuilt.Version())
	}
	diverged := 0
	for p := 0; p < live.Nodes(); p++ {
		a, b := live.Agg(p), rebuilt.Agg(p)
		if a.Rows != b.Rows || a.Count != b.Count || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			diverged++
		}
	}
	return diverged, nil
}
