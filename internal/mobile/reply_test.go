package mobile

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"drugtree/internal/core"
	"drugtree/internal/store"
)

// everyKindRows returns rows over one column of each storage kind, with
// a NULL in every column, the float edge cases (NaN, a NaN with a
// payload, −0, ±Inf), empty, non-ASCII and long strings, and extreme
// integers.
func everyKindRows() ([]string, []store.Kind, []store.Row) {
	i, f, s, b, null := store.IntValue, store.FloatValue, store.StringValue, store.BoolValue, store.NullValue()
	rows := []store.Row{
		{i(0), f(math.NaN()), s(""), b(true)},
		{i(-1), f(math.Copysign(0, -1)), s("héllo ☃ 日本"), b(false)},
		{i(math.MaxInt64), f(math.Inf(1)), null, b(true)},
		{i(math.MinInt64), f(math.Inf(-1)), s(strings.Repeat("x", 200)), null},
		{null, f(math.Float64frombits(0x7ff8000000000001)), s("plain"), b(false)},
		{i(300), null, s(""), b(true)},
	}
	return []string{"n", "x", "s", "ok"}, []store.Kind{store.KindInt, store.KindFloat, store.KindString, store.KindBool}, rows
}

// TestBatchEncodingMatchesRows pins the wire format of a columnar
// reply: a QueryResult encoded from its Batch is byte for byte the one
// encoded from its Rows, and decodes back to rows that re-encode to the
// same bytes.
func TestBatchEncodingMatchesRows(t *testing.T) {
	cols, kinds, rows := everyKindRows()
	mixed := []store.Row{
		{store.IntValue(7), store.StringValue("s")},
		{store.NullValue(), store.FloatValue(math.Copysign(0, -1))},
		{store.BoolValue(true), store.FloatValue(math.NaN())},
		{store.StringValue("ü"), store.NullValue()},
	}
	cases := []struct {
		name  string
		cols  []string
		kinds []store.Kind
		rows  []store.Row
	}{
		{"typed columns", cols, kinds, rows},
		{"generic columns", cols, make([]store.Kind, len(cols)), rows},
		{"mixed kinds in generic columns", []string{"a", "b"}, make([]store.Kind, 2), mixed},
		{"zero rows", cols, kinds, nil},
		{"zero columns", nil, nil, []store.Row{{}, {}, {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			byRows, err := encodeMsg(&QueryResult{Columns: tc.cols, Rows: tc.rows})
			if err != nil {
				t.Fatal(err)
			}
			batch := store.ColBatchFromRows(tc.kinds, tc.rows)
			byBatch, err := encodeMsg(&QueryResult{Columns: tc.cols, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(byBatch, byRows) {
				t.Fatalf("batch encoding differs from row encoding:\nbatch %x\n rows %x", byBatch, byRows)
			}
			msg, err := decodeMsg(byBatch)
			if err != nil {
				t.Fatal(err)
			}
			q := msg.(*QueryResult)
			if len(q.Rows) != len(tc.rows) {
				t.Fatalf("decoded %d rows, want %d", len(q.Rows), len(tc.rows))
			}
			for i, r := range tc.rows {
				if got, want := store.AppendRow(nil, q.Rows[i]), store.AppendRow(nil, r); !bytes.Equal(got, want) {
					t.Fatalf("row %d decoded as %v, want %v", i, q.Rows[i], r)
				}
			}
			again, err := encodeMsg(q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, byRows) {
				t.Fatal("decoded result re-encodes differently")
			}
		})
	}
}

// compressible returns a delta large and redundant enough to deflate.
func compressible(n int) *TreeDelta {
	d := &TreeDelta{Reset: true}
	for i := 0; i < n; i++ {
		d.Add = append(d.Add, WireNode{Pre: int64(i), Name: fmt.Sprintf("node-%d", i%17), LeafCount: 3})
	}
	return d
}

// TestCompressedFrameMatchesFreshWriter holds a session's reused
// compressor to the bytes a freshly built one writes, frame after
// frame, and a client's reused decompressor to inflating them all.
func TestCompressedFrameMatchesFreshWriter(t *testing.T) {
	cols, kinds, rows := everyKindRows()
	var wide []store.Row
	for len(wide) < 200 {
		wide = append(wide, rows...)
	}
	msgs := []any{
		compressible(300),
		&QueryResult{Columns: cols, Batch: store.ColBatchFromRows(kinds, wide)},
		&ErrorMsg{Text: "below the threshold, sent raw"},
		compressible(50),
		compressible(300),
	}
	var fw frameWriter
	var wire bytes.Buffer
	for i, m := range msgs {
		var got, want bytes.Buffer
		n, err := fw.write(&got, m, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteMsgCompressed(&want, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("frame %d: reused compressor wrote %d bytes, a fresh one %d", i, got.Len(), want.Len())
		}
		if n != int64(got.Len()) {
			t.Fatalf("frame %d: write reported %d bytes, put %d on the wire", i, n, got.Len())
		}
		wire.Write(got.Bytes())
	}
	var fr frameReader
	r := bufio.NewReader(&wire)
	for i, m := range msgs {
		got, _, err := fr.read(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		a, _ := encodeMsg(got)
		b, _ := encodeMsg(m)
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d did not survive the reused decompressor", i)
		}
	}
	if fr.zr == nil {
		t.Fatal("no frame was deflated")
	}
}

// TestFrameBuffersBounded checks the retention bound: a frame buffer
// is reused across frames, but one that a large frame grew past
// maxRetained is dropped instead of pinned.
func TestFrameBuffersBounded(t *testing.T) {
	var fw frameWriter
	var fr frameReader
	roundTrip := func(m any) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := fw.write(&buf, m, false); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fr.read(bufio.NewReader(&buf)); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip(&ErrorMsg{Text: "small"})
	out, in := &fw.buf[0], &fr.body[0]
	roundTrip(&ErrorMsg{Text: "small again"})
	if &fw.buf[0] != out || &fr.body[0] != in {
		t.Fatal("a small frame did not reuse the buffers")
	}
	roundTrip(compressible(10_000))
	if cap(fw.buf) > maxRetained || cap(fr.body) > maxRetained {
		t.Fatalf("buffers kept %d and %d bytes after a large frame, bound %d", cap(fw.buf), cap(fr.body), maxRetained)
	}

	var zw frameWriter
	var zr frameReader
	var buf bytes.Buffer
	if _, err := zw.write(&buf, compressible(100_000), true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := zr.read(bufio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
	if cap(zw.buf) > maxRetained || zw.z.Cap() > maxRetained || cap(zr.body) > maxRetained || zr.raw.Cap() > maxRetained {
		t.Fatalf("compressing buffers kept %d, %d, %d and %d bytes, bound %d",
			cap(zw.buf), zw.z.Cap(), cap(zr.body), zr.raw.Cap(), maxRetained)
	}
}

// replyOf returns a rows × 4 reply of INT, FLOAT, STRING and BOOL
// columns, as the engine's columnar result.
func replyOf(rows int) *QueryResult {
	cb := &store.ColBatch{Rows: rows, Cols: []store.Col{
		*store.NewCol(store.KindInt, rows), *store.NewCol(store.KindFloat, rows),
		*store.NewCol(store.KindString, rows), *store.NewCol(store.KindBool, rows),
	}}
	for i := 0; i < rows; i++ {
		cb.Cols[0].Append(store.IntValue(int64(i * 7919)))
		cb.Cols[1].Append(store.FloatValue(float64(i) / 3))
		cb.Cols[2].Append(store.StringValue(fmt.Sprintf("LIG%05d", i)))
		cb.Cols[3].Append(store.BoolValue(i%2 == 0))
	}
	return &QueryResult{Columns: []string{"ligand_rank", "affinity", "ligand_id", "active"}, Batch: cb}
}

// TestQueryReplyAllocs bounds the objects a 100-row, 4-column reply
// costs once the buffers are warm: the server frames it with none, and
// the client decodes it with at most three (the message with its column
// headers, the row headers and the cell slab) plus one per string cell.
func TestQueryReplyAllocs(t *testing.T) {
	msg := replyOf(100)
	s, sess := NewServer(nil), &session{}
	if got := testing.AllocsPerRun(100, func() {
		if err := s.respond(io.Discard, sess, msg); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("server framing allocates %.1f objects a reply, want 0", got)
	}

	var frame bytes.Buffer
	if err := WriteMsg(&frame, msg); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{names: make(map[string]string)}
	var src bytes.Reader
	r := bufio.NewReader(&src)
	got := testing.AllocsPerRun(100, func() {
		src.Reset(frame.Bytes())
		r.Reset(&src)
		if _, _, err := fr.read(r); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3 + msg.Batch.Rows); got > limit {
		t.Errorf("client decode allocates %.1f objects a reply, want at most %.0f", got, limit)
	}
}

// BenchmarkQueryReply prices one 100-row, 4-column reply through the
// wire codec: encoded from the shared columns and framed into the
// session's buffer, then read and decoded by the client into one slab.
func BenchmarkQueryReply(b *testing.B) {
	msg := replyOf(100)
	var fw frameWriter
	fr := frameReader{names: make(map[string]string)}
	var wire bytes.Buffer
	r := bufio.NewReader(&wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		n, err := fw.write(&wire, msg, false)
		if err != nil {
			b.Fatal(err)
		}
		r.Reset(&wire)
		if decodeSink, _, err = fr.read(r); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}

// TestSharedResultEncodedConcurrently has eight sessions encode one
// cached columnar result while a committer keeps invalidating it, so
// under -race any write to a shared result — by a fill, a hit or an
// encoder — shows up as a race.
func TestSharedResultEncodedConcurrently(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.QueryCacheEntries = 16
	e := testEngineCfg(t, cfg)
	lig, err := e.DB().Table("ligands")
	if err != nil {
		t.Fatal(err)
	}
	const sessions, queries, commits = 8, 40, 20
	const q = "SELECT ligand_id, name, weight FROM ligands ORDER BY ligand_id"
	srv := NewServer(e)
	var wg sync.WaitGroup
	errs := make(chan error, sessions+1)
	for g := 0; g < sessions; g++ {
		clientConn, serverConn := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := srv.ServeConn(context.Background(), serverConn); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			defer clientConn.Close()
			c, err := Dial(clientConn, StrategyLOD, 20)
			if err != nil {
				errs <- err
				return
			}
			prev := 0
			for i := 0; i < queries; i++ {
				res, err := c.Query(q)
				if err != nil {
					errs <- err
					return
				}
				// Commits only insert, so a session never sees the table shrink.
				if len(res.Rows) < prev || len(res.Columns) != 3 {
					errs <- fmt.Errorf("reply %d: %d rows after %d, %d columns", i, len(res.Rows), prev, len(res.Columns))
					return
				}
				prev = len(res.Rows)
				runtime.Gosched()
			}
			if err := c.Close(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			if _, err := lig.Insert(store.Row{
				store.StringValue(fmt.Sprintf("LIGX%03d", i)), store.StringValue("x"),
				store.StringValue("CCO"), store.FloatValue(46), store.StringValue("C2H6O"),
			}); err != nil {
				errs <- err
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e.Metrics.Counter("query.stmt_cache_hits").Value() == 0 {
		t.Error("no session was served from the statement cache")
	}
}
