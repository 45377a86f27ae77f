package query

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"drugtree/internal/store"
)

// Every buffer given back to an arena in this package's tests is
// overwritten, so a scan or join that reads scratch it gave back, or a
// result that aliases it, fails here.
func init() { arenaPoison = true }

// arenaCorpus lists statements over the datagen catalog whose scans,
// joins and folds all borrow arena scratch: a streamed hash join, a
// keyed probe, a three-way join, group-joins, folds over an index range
// and over a sequential scan with a residual, and a top-k.
var arenaCorpus = []string{
	`SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 6`,
	`SELECT p.accession, a.ligand_id FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE p.family = 'FAM01' AND a.affinity > 1`,
	`SELECT p.accession, n.organism, l.weight, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id
		JOIN ligands l ON a.ligand_id = l.ligand_id JOIN annotations n ON p.accession = n.protein_id
		WHERE a.affinity >= 7 ORDER BY a.affinity DESC LIMIT 50`,
	`SELECT p.family, COUNT(*), AVG(a.affinity) FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE a.affinity > 1 GROUP BY p.family`,
	`SELECT l.ligand_id, SUM(a.affinity) FROM ligands l JOIN activities a ON l.ligand_id = a.ligand_id GROUP BY l.ligand_id`,
	`SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity > 1 GROUP BY ligand_id`,
	`SELECT ligand_id, COUNT(*), AVG(affinity) FROM activities WHERE affinity * 2.0 > 2.0 GROUP BY ligand_id`,
	`SELECT protein_id, ligand_id, affinity FROM activities WHERE affinity >= 5 ORDER BY affinity DESC LIMIT 20`,
}

// cloneBatch deep-copies a result batch's columns.
func cloneBatch(cb *store.ColBatch) *store.ColBatch {
	if cb == nil {
		return nil
	}
	out := &store.ColBatch{Rows: cb.Rows, Cols: make([]store.Col, len(cb.Cols))}
	for i, c := range cb.Cols {
		out.Cols[i] = store.Col{Kind: c.Kind, Null: slices.Clone(c.Null), Int: slices.Clone(c.Int),
			Float: slices.Clone(c.Float), Str: slices.Clone(c.Str)}
	}
	return out
}

// sameBatchBits reports where got differs from want, cell for cell, a
// float by its bits; "" when it does not.
func sameBatchBits(want, got *store.ColBatch) string {
	if (want == nil) != (got == nil) {
		return fmt.Sprintf("batch %v, want %v", got, want)
	}
	if want == nil {
		return ""
	}
	if want.Rows != got.Rows || len(want.Cols) != len(got.Cols) {
		return fmt.Sprintf("%d rows × %d columns, want %d × %d", got.Rows, len(got.Cols), want.Rows, len(want.Cols))
	}
	for c := range want.Cols {
		w, g := &want.Cols[c], &got.Cols[c]
		if w.Kind != g.Kind || !slices.Equal(w.Null, g.Null) || !slices.Equal(w.Int, g.Int) || !slices.Equal(w.Str, g.Str) ||
			len(w.Float) != len(g.Float) {
			return fmt.Sprintf("column %d differs", c)
		}
		for i := range w.Float {
			if math.Float64bits(w.Float[i]) != math.Float64bits(g.Float[i]) {
				return fmt.Sprintf("column %d row %d: %v, want %v", c, i, g.Float[i], w.Float[i])
			}
		}
	}
	return ""
}

// TestArenaReuseLeavesResultsIntact runs every statement of the
// differential, hash-operator and arena corpora, each catalog on one
// engine, copies each result, then runs the whole set again in reverse
// order on the same engines, so every buffer an arena lent the first
// run is lent again: a result that aliased arena memory would change
// under the later statements. The first results must equal their copies
// bit for bit, and so must the second run's.
func TestArenaReuseLeavesResultsIntact(t *testing.T) {
	type stmt struct {
		e *Engine
		q string
	}
	tc, hc, dc := NewEngine(testCatalog(t), DefaultOptions()), NewEngine(hashOpsCatalog(t), DefaultOptions()), NewEngine(datagenCatalog(t, 5), DefaultOptions())
	var stmts []stmt
	for _, c := range differentialCorpus {
		stmts = append(stmts, stmt{tc, c.q})
	}
	for _, c := range hashOpsCorpus {
		stmts = append(stmts, stmt{hc, c.q})
	}
	for _, q := range arenaCorpus {
		stmts = append(stmts, stmt{dc, q})
	}
	run := func(s stmt) *Result {
		t.Helper()
		res, err := s.e.Run(context.Background(), mustParseQ(t, s.q))
		if err != nil {
			t.Fatalf("%q: %v", s.q, err)
		}
		return res
	}
	first := make([]*Result, len(stmts))
	copies := make([]*store.ColBatch, len(stmts))
	for i, s := range stmts {
		first[i] = run(s)
		copies[i] = cloneBatch(first[i].Batch)
	}
	for i := len(stmts) - 1; i >= 0; i-- {
		if diff := sameBatchBits(copies[i], run(stmts[i]).Batch); diff != "" {
			t.Fatalf("%q run again: %s", stmts[i].q, diff)
		}
	}
	for i, s := range stmts {
		if diff := sameBatchBits(copies[i], first[i].Batch); diff != "" {
			t.Fatalf("%q: its first result changed under later statements: %s", s.q, diff)
		}
	}
	for _, e := range []*Engine{tc, hc, dc} {
		assertArenasBounded(t, e)
	}
}

// assertArenasBounded checks what e keeps at rest: no more idle arenas
// than arenaIdle, in each no loan outstanding, no more buffers than its
// bounds and none past arenaMaxLen.
func assertArenasBounded(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.idle) > arenaIdle {
		t.Fatalf("%d idle arenas, bound %d", len(e.idle), arenaIdle)
	}
	for _, a := range e.idle {
		if len(a.lent32) != 0 || len(a.lentInts) != 0 {
			t.Fatalf("an idle arena has %d + %d loans outstanding", len(a.lent32), len(a.lentInts))
		}
		if len(a.free32) > arenaInt32s || len(a.freeInts) > arenaInts {
			t.Fatalf("an idle arena keeps %d int32 and %d int buffers, bounds %d and %d", len(a.free32), len(a.freeInts), arenaInt32s, arenaInts)
		}
		caps := []int{cap(a.slots)}
		for _, b := range a.free32 {
			caps = append(caps, cap(b))
		}
		for _, b := range a.freeInts {
			caps = append(caps, cap(b))
		}
		for _, c := range caps {
			if c > arenaMaxLen {
				t.Fatalf("an idle arena keeps a buffer of %d elements, bound %d", c, arenaMaxLen)
			}
		}
	}
}

// TestArenaKeepsItsLargestBuffers pins the retention rules: a loan is
// the smallest idle buffer that fits, release keeps an arena's largest
// buffers up to its bound and drops any past arenaMaxLen, a slot list
// comes back as the Selection left it, and an engine keeps at most
// arenaIdle idle arenas.
func TestArenaKeepsItsLargestBuffers(t *testing.T) {
	a := &arena{}
	bufs := make([][]int32, arenaInt32s+2)
	for i := range bufs {
		a.int32s(&bufs[i], 100*(i+1))
	}
	var big []int32
	a.int32s(&big, arenaMaxLen+1)
	a.release()
	if big != nil || bufs[0] != nil {
		t.Fatal("release left a loan in the field it lent it to")
	}
	if len(a.free32) != arenaInt32s {
		t.Fatalf("%d int32 buffers kept, want %d", len(a.free32), arenaInt32s)
	}
	for _, b := range a.free32 {
		if cap(b) < 300 || cap(b) > arenaMaxLen {
			t.Fatalf("kept a buffer of %d elements: want the %d largest, none past %d", cap(b), arenaInt32s, arenaMaxLen)
		}
	}
	var got []int32
	a.int32s(&got, 250)
	if len(got) != 250 || cap(got) != 300 {
		t.Fatalf("a 250-element loan is %d long in %d: want the 300-element buffer", len(got), cap(got))
	}
	a.release()

	if s := a.slotList(); s != nil {
		t.Fatalf("a fresh arena lent a slot list of %d", cap(s))
	}
	a.giveSlots(make([]int32, 5, 64))
	a.giveSlots(make([]int32, 0, 32))
	if s := a.slotList(); cap(s) != 64 || len(s) != 0 || a.slotList() != nil {
		t.Fatalf("slot list of %d in %d: want the larger list, empty, lent once", len(s), cap(s))
	}
	a.giveSlots(make([]int32, 0, arenaMaxLen+1))
	if a.slotList() != nil {
		t.Fatal("a slot list past arenaMaxLen was kept")
	}

	e := NewEngine(testCatalog(t), DefaultOptions())
	var held []*arena
	for range arenaIdle + 3 {
		held = append(held, e.takeArena())
	}
	for _, a := range held {
		e.putArena(a)
	}
	if len(e.idle) != arenaIdle {
		t.Fatalf("%d idle arenas after %d statements ended at once, want %d", len(e.idle), len(held), arenaIdle)
	}
	if e.takeArena() != held[arenaIdle-1] {
		t.Fatal("takeArena did not lend the arena returned last")
	}
}
