package mobile

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"drugtree/internal/store"
)

// allocatedBy returns the bytes f allocates, read from the runtime's
// counters. The counters are process-wide, so what another goroutine
// allocates meanwhile (the fuzzing engine's, a sync.Pool refilling
// after a collection) lands in them too; f runs three times and the
// least reading counts.
func allocatedBy(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// FuzzDecodeMsg feeds arbitrary payloads to the message decoder. It
// must never panic and never allocate more than a small multiple of the
// payload's length — a result's decoding is charged at most
// replyAllocRatio (48) bytes a payload byte, so 64× leaves room for Go's
// size classes and the error's formatting — and every payload it
// accepts must re-encode to exactly its own bytes. The corpus in
// testdata/fuzz/FuzzDecodeMsg holds one payload of each message type,
// a TreeDelta in protocol rev 4 (tree_delta_rev4) among them (the older
// tree_delta sets a node's collapsed bit, which rev 4 refuses), and in
// rev 5 a self-contained QUERY and QUERY_RESULTs with string
// dictionaries, NULLs, an all-NULL and a BOOL column (query_result), zero
// rows (query_result_zero_rows) and padding (query_result_padded).
func FuzzDecodeMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		var msg any
		var err error
		if n, limit := allocatedBy(func() { msg, err = decodeMsg(p) }), uint64(64*len(p)+4096); n > limit {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(p), n, limit)
		}
		if err != nil {
			return
		}
		again, err := encodeMsg(msg)
		if err != nil {
			t.Fatalf("decoded %T does not encode: %v", msg, err)
		}
		if !bytes.Equal(again, p) {
			t.Fatalf("%T re-encodes to\n%x\nnot\n%x", msg, again, p)
		}
	})
}

// TestReplyAllocationBound decodes the replies that cost the decoder
// most per payload byte — one-byte cells in one column, all-NULL and
// sparse columns, no columns at all, and a dictionary of long entries
// that share all but their last byte — and holds each to
// FuzzDecodeMsg's bound.
func TestReplyAllocationBound(t *testing.T) {
	const n = 5000
	rows := func(cell func(i int) store.Row) []store.Row {
		out := make([]store.Row, n)
		for i := range out {
			out[i] = cell(i)
		}
		return out
	}
	long := strings.Repeat("x", 2000)
	for name, m := range map[string]*QueryResult{
		"bool cells":             {Columns: []string{"b"}, Rows: rows(func(i int) store.Row { return store.Row{store.BoolValue(i%3 == 0)} })},
		"small ints":             {Columns: []string{"i"}, Rows: rows(func(i int) store.Row { return store.Row{store.IntValue(int64(i % 50))} })},
		"all NULL":               {Columns: []string{"a", "b", "c"}, Rows: rows(func(int) store.Row { return store.Row{{}, {}, {}} })},
		"one string among NULLs": {Columns: []string{"s"}, Rows: rows(func(i int) store.Row { return store.Row{{}} })},
		"no columns":             {Rows: rows(func(int) store.Row { return store.Row{} })},
		"shared prefixes": {Columns: []string{"s"}, Rows: rows(func(i int) store.Row {
			return store.Row{store.StringValue(fmt.Sprintf("%s%05d", long, i))}
		})},
	} {
		if name == "one string among NULLs" {
			m.Rows[n/2] = store.Row{store.StringValue("x")}
		}
		p, err := encodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		var got any
		if used, bound := allocatedBy(func() { got, err = decodeMsg(p) }), uint64(64*len(p)+4096); err != nil || used > bound {
			t.Errorf("%s: decoding %d bytes allocated %d, bound %d (%v)", name, len(p), used, bound, err)
		}
		if again, _ := encodeMsg(got); !bytes.Equal(again, p) {
			t.Errorf("%s does not round-trip", name)
		}
	}
}
