package store

import (
	"fmt"
	"math"
	"strings"
)

// histogramBuckets is the number of equi-width buckets per numeric
// column histogram.
const histogramBuckets = 32

// ColumnStats summarizes one column for the cost-based optimizer.
type ColumnStats struct {
	Name string
	Kind Kind
	// NonNull is the number of non-NULL values observed.
	NonNull int64
	// NDV is the number of distinct values (exact: collected into a
	// bounded map; beyond statsNDVCap it reports the cap and
	// Overflowed is set — selectivity math treats it as "many").
	NDV        int64
	Overflowed bool
	// Min and Max bound the observed values (numeric and string).
	Min, Max Value
	// Hist is an equi-width histogram over [Min,Max] for numeric
	// columns; nil otherwise.
	Hist []int64
}

// statsNDVCap bounds the distinct-value tracking map.
const statsNDVCap = 4096

// TableStats summarizes a table at a point in time.
type TableStats struct {
	Table   string
	Rows    int64
	Version int64
	Columns []ColumnStats
}

// Column returns the stats for the named column, or nil.
func (s *TableStats) Column(name string) *ColumnStats {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return &s.Columns[i]
		}
	}
	return nil
}

// SelectivityEqual estimates the fraction of rows where col = v using
// NDV: 1/NDV with a floor when NDV overflowed.
func (s *TableStats) SelectivityEqual(col string) float64 {
	c := s.Column(col)
	if c == nil || c.NDV == 0 {
		return 0.1
	}
	return 1 / float64(c.NDV)
}

// SelectivityRange estimates the fraction of rows with lo ≤ col ≤ hi
// from the histogram, falling back to the uniform assumption over
// [Min,Max] and then to a default.
func (s *TableStats) SelectivityRange(col string, lo, hi *Value) float64 {
	c := s.Column(col)
	if c == nil || c.NonNull == 0 {
		return 0.3
	}
	if c.Min.Numeric() && c.Max.Numeric() {
		minF, maxF := c.Min.AsFloat(), c.Max.AsFloat()
		loF, hiF := minF, maxF
		if lo != nil && lo.Numeric() {
			loF = math.Max(minF, lo.AsFloat())
		}
		if hi != nil && hi.Numeric() {
			hiF = math.Min(maxF, hi.AsFloat())
		}
		if hiF < loF {
			return 0
		}
		if c.Hist != nil && maxF > minF {
			width := (maxF - minF) / float64(len(c.Hist))
			var covered float64
			for b, count := range c.Hist {
				bLo := minF + float64(b)*width
				bHi := bLo + width
				overlap := math.Min(bHi, hiF) - math.Max(bLo, loF)
				if overlap <= 0 {
					continue
				}
				covered += float64(count) * overlap / width
			}
			return clamp01(covered / float64(c.NonNull))
		}
		if maxF > minF {
			return clamp01((hiF - loF) / (maxF - minF))
		}
		return 1
	}
	// Non-numeric range: assume a third matches.
	return 0.3
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Stats computes fresh statistics over the whole table. For DrugTree
// dataset sizes a full pass is cheap; a production system would
// sample. A frozen image's are computed once, on first call, and shared:
// callers must not write them.
func (t *Table) Stats() *TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.img != nil {
		return t.img.tableStats()
	}
	return computeStats(t.name, t.schema, t.latestLocked(), t.live, t.commit)
}

// computeStats passes over every row r holds: rows of them, at version.
func computeStats(name string, schema *Schema, r reader, rows int, version int64) *TableStats {
	ts := &TableStats{
		Table:   name,
		Rows:    int64(rows),
		Version: version,
	}
	n := schema.Len()
	cols := r.storage()
	// eachCell visits every cell of every row, reading storage in place.
	eachCell := func(fn func(i int, v Value)) {
		_ = r.walk(nil, Access{}, func(s int) bool { // a pass without poll cannot fail
			for i := 0; i < n; i++ {
				fn(i, cols[i].stored(s))
			}
			return true
		})
	}
	type acc struct {
		distinct map[uint64]struct{}
		cs       ColumnStats
		sumMinOk bool
	}
	accs := make([]acc, n)
	for i := range accs {
		accs[i].distinct = make(map[uint64]struct{})
		accs[i].cs = ColumnStats{Name: schema.Columns[i].Name, Kind: schema.Columns[i].Kind}
	}
	eachCell(func(i int, v Value) {
		if v.IsNull() {
			return
		}
		a := &accs[i]
		a.cs.NonNull++
		if len(a.distinct) < statsNDVCap {
			a.distinct[v.Hash()] = struct{}{}
		} else {
			a.cs.Overflowed = true
		}
		if !a.sumMinOk {
			a.cs.Min, a.cs.Max = v, v
			a.sumMinOk = true
			return
		}
		if Compare(v, a.cs.Min) < 0 {
			a.cs.Min = v
		}
		if Compare(v, a.cs.Max) > 0 {
			a.cs.Max = v
		}
	})
	// Second pass for histograms on numeric columns.
	for i := range accs {
		a := &accs[i]
		a.cs.NDV = int64(len(a.distinct))
		if a.cs.NonNull > 0 && a.cs.Min.Numeric() && a.cs.Max.AsFloat() > a.cs.Min.AsFloat() {
			a.cs.Hist = make([]int64, histogramBuckets)
		}
	}
	eachCell(func(i int, v Value) {
		a := &accs[i]
		if a.cs.Hist == nil || v.IsNull() || !v.Numeric() {
			return
		}
		minF, maxF := a.cs.Min.AsFloat(), a.cs.Max.AsFloat()
		b := int(float64(histogramBuckets) * (v.AsFloat() - minF) / (maxF - minF))
		if b >= histogramBuckets {
			b = histogramBuckets - 1
		}
		if b < 0 {
			b = 0
		}
		a.cs.Hist[b]++
	})
	ts.Columns = make([]ColumnStats, n)
	for i := range accs {
		ts.Columns[i] = accs[i].cs
	}
	return ts
}

// String renders the stats for EXPLAIN ANALYZE style output.
func (s *TableStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table %s: %d rows (v%d)\n", s.Table, s.Rows, s.Version)
	for _, c := range s.Columns {
		fmt.Fprintf(&b, "  %-20s %-7v nonNull=%-8d ndv=%-6d", c.Name, c.Kind, c.NonNull, c.NDV)
		if c.Overflowed {
			b.WriteString("+ ")
		}
		if c.NonNull > 0 {
			fmt.Fprintf(&b, " range=[%v, %v]", c.Min, c.Max)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
