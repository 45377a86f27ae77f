package mobile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"drugtree/internal/admission"
	"drugtree/internal/netsim"
)

// subtreeJoin is the analytics workload's subtree_join statement.
func subtreeJoin(clade string, affinity float64) string {
	return fmt.Sprintf("SELECT p.accession, a.ligand_id, a.affinity FROM proteins p JOIN activities a ON p.accession = a.protein_id WHERE WITHIN_SUBTREE(p.accession, '%s') AND a.affinity >= %.3f ORDER BY a.affinity DESC LIMIT 100", clade, affinity)
}

// literals returns the literals splitStmt finds in s.
func literals(s string) []string {
	var out []string
	cuts := splitStmt(nil, s)
	for i := 1; i+1 < len(cuts); i += 2 {
		out = append(out, s[cuts[i]:cuts[i+1]])
	}
	return out
}

func TestSplitStmt(t *testing.T) {
	for _, tc := range []struct {
		text string
		want []string
	}{
		{subtreeJoin("clade_21", 7.2154), []string{"'clade_21'", "7.215", "100"}},
		{"SELECT depth, COUNT(*) FROM tree_nodes WHERE depth <= 4 GROUP BY depth", []string{"4"}},
		{"SELECT * FROM t WHERE name = 'it''s' AND x1 > 2.5e3", []string{"'it''s'", "2.5"}},
		{"SELECT 'a''' || 'b'", []string{"'a'''", "'b'"}},
		{"x = 'unterminated 5", nil},
		{"x=-12.", []string{"12"}},
		{"LIG00012 _9 é9 9", []string{"9"}},
		{"'é' 1.2.3", []string{"'é'", "1.2", "3"}},
		{"", nil},
	} {
		if got := literals(tc.text); !slices.Equal(got, tc.want) {
			t.Errorf("%q: literals %q, want %q", tc.text, got, tc.want)
		}
	}
}

// queryHead returns the slot a client frame names and whether it
// carries its template.
func queryHead(t *testing.T, frame []byte) (int, bool) {
	t.Helper()
	_, n := binary.Uvarint(frame)
	if frame[n] != frameRaw || MsgType(frame[n+1]) != MsgQuery {
		t.Fatalf("frame %x is not a raw QUERY", frame)
	}
	head, _ := binary.Uvarint(frame[n+2:])
	return int(head >> 1), head&1 == 1
}

// recordingConn keeps a copy of every Write; a frameWriter puts one
// frame on the wire a Write.
type recordingConn struct {
	io.ReadWriter
	frames [][]byte
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.frames = append(r.frames, bytes.Clone(p))
	return r.ReadWriter.Write(p)
}

// TestStatementSlots sends statements through a client's frame writer
// and a server session's frame reader: each decodes to its own text; a
// template's first use carries it and later uses name its slot; and
// past maxStmtSlots templates the oldest slot is taken over, so an
// evicted template is sent again.
func TestStatementSlots(t *testing.T) {
	fw := frameWriter{enc: encoder{stmts: &stmtWriter{}}}
	fr := frameReader{stmts: &stmtTable{}}
	var wire bytes.Buffer
	r := bufio.NewReader(&wire)
	send := func(text string) (slot int, define bool) {
		t.Helper()
		wire.Reset()
		if _, err := fw.write(&wire, &Query{DTQL: text}, false); err != nil {
			t.Fatal(err)
		}
		slot, define = queryHead(t, wire.Bytes())
		msg, _, err := fr.read(r)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if got := msg.(*Query).DTQL; got != text {
			t.Fatalf("sent %q, server spliced %q", text, got)
		}
		return slot, define
	}
	first, define := send(subtreeJoin("clade_3", 6.5))
	if first != 1 || !define {
		t.Fatalf("first use: slot %d, carries template %v; want slot 1 carrying it", first, define)
	}
	for _, q := range []string{subtreeJoin("clade_3", 6.5), subtreeJoin("clade_117", 8.25)} {
		if slot, define := send(q); slot != first || define {
			t.Fatalf("%q: slot %d, carries template %v; want a reference to slot %d", q, slot, define, first)
		}
	}
	for k := 2; k <= maxStmtSlots+5; k++ {
		q := fmt.Sprintf("SELECT c%d FROM t WHERE x = 1", k)
		if slot, define := send(q); slot != (k-1)%maxStmtSlots+1 || !define {
			t.Fatalf("template %d: slot %d, carries template %v", k, slot, define)
		}
	}
	// The subtree_join template's slot was taken over.
	if slot, define := send(subtreeJoin("clade_3", 6.5)); !define || slot == first {
		t.Fatalf("an evicted template went by reference to slot %d (template carried: %v)", slot, define)
	}
	// A statement too long to keep goes whole, in slot 0.
	long := "SELECT " + strings.Repeat("a, ", maxStmtTemplate/3) + "b FROM t WHERE x = 2"
	if slot, define := send(long); slot != 0 || !define {
		t.Fatalf("an overlong template went to slot %d", slot)
	}
}

// rawFrame frames payload uncompressed.
func rawFrame(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload)+1)), append([]byte{frameRaw}, payload...)...)
}

// defineFrame is a QUERY frame that puts the template text (no
// literals) in slot.
func defineFrame(slot int, text string) []byte {
	p := binary.AppendUvarint([]byte{byte(MsgQuery)}, uint64(slot<<1|1))
	return rawFrame(appendStr(append(p, 1), text))
}

// TestTemplateFramesRefused: a frame naming an undefined or
// out-of-range slot, or keeping an oversized template, is answered with
// an ErrorMsg, and the session reads on.
func TestTemplateFramesRefused(t *testing.T) {
	server := NewServer(testEngine(t))
	conn, done := serveOnce(t, server)
	if err := WriteMsg(conn, &Hello{Strategy: StrategyLOD, Budget: 20}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, _, err := ReadMsg(r); err != nil {
		t.Fatal(err)
	}
	oversized := "SELECT COUNT(*) FROM proteins" + strings.Repeat(" ", maxStmtTemplate)
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"undefined slot", rawFrame([]byte{byte(MsgQuery), 5 << 1}), errStmtUnknown},
		{"slot past the table", rawFrame(binary.AppendUvarint([]byte{byte(MsgQuery)}, (maxStmtSlots+1)<<1)), errStmtSlot},
		{"defining a slot past the table", defineFrame(maxStmtSlots+1, "SELECT 1"), errStmtSlot},
		{"oversized template", defineFrame(1, oversized), errStmtTemplate},
		{"the oversized template's slot", rawFrame([]byte{byte(MsgQuery), 1 << 1}), errStmtUnknown},
	} {
		if _, err := conn.Write(tc.frame); err != nil {
			t.Fatal(err)
		}
		msg, _, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if e, ok := msg.(*ErrorMsg); !ok || !strings.Contains(e.Text, tc.want.Error()) {
			t.Fatalf("%s: answered %#v, want an ErrorMsg saying %q", tc.name, msg, tc.want)
		}
	}
	// Slot 0 has no limit but the frame's, and the session still serves.
	if err := WriteMsg(conn, &Query{DTQL: oversized}); err != nil {
		t.Fatal(err)
	}
	if msg, _, err := ReadMsg(r); err != nil || len(msg.(*QueryResult).Rows) != 1 {
		t.Fatalf("session after refused frames answered %#v, %v", msg, err)
	}
	if err := WriteMsg(conn, &Bye{}); err != nil {
		t.Fatal(err)
	}
	if err := waitSession(t, done); err != nil {
		t.Fatal(err)
	}
}

// TestTemplateMemoryBounded: however many templates a session defines,
// of whatever size, its table keeps at most maxStmtSlots ×
// maxStmtTemplate bytes of them.
func TestTemplateMemoryBounded(t *testing.T) {
	held := func(tab *stmtTable) int {
		n := 0
		for _, s := range tab {
			if s != nil {
				n += stmtSize(s.text, s.cuts)
			}
		}
		return n
	}
	fr := frameReader{stmts: &stmtTable{}}
	var wire bytes.Buffer
	r := bufio.NewReader(&wire)
	for k := 0; k < 4*maxStmtSlots; k++ {
		// Each template is as large as one may be.
		text := fmt.Sprintf("SELECT c%d", k)
		text += strings.Repeat(" ", maxStmtTemplate-stmtSize(text, []int{0, 0}))
		wire.Reset()
		wire.Write(defineFrame(k%maxStmtSlots+1, text))
		if _, _, err := fr.read(r); err != nil {
			t.Fatalf("template %d: %v", k, err)
		}
		if got, bound := held(fr.stmts), maxStmtSlots*maxStmtTemplate; got > bound {
			t.Fatalf("after %d templates the table keeps %d bytes, bound %d", k+1, got, bound)
		}
	}
	if got, want := held(fr.stmts), maxStmtSlots*maxStmtTemplate; got != want {
		t.Fatalf("a full table keeps %d bytes, want %d", got, want)
	}
}

// TestRedialRedefinesTemplate: after the transport drops mid-session,
// the replayed request defines its template again, since the new
// session's server holds none, and is answered.
func TestRedialRedefinesTemplate(t *testing.T) {
	server := NewServer(testEngine(t))
	conn, _ := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	var next *recordingConn
	c.Redial = func() (io.ReadWriter, error) {
		fresh, _ := serveOnce(t, server)
		next = &recordingConn{ReadWriter: fresh}
		return next, nil
	}
	c.MaxRedials = 1
	const q = "SELECT COUNT(*) FROM activities WHERE affinity >= 6.5"
	if _, err := c.Query(q); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("query after transport loss: %v", err)
	}
	if c.Reconnects != 1 || len(res.Rows) != 1 {
		t.Fatalf("reconnects %d, rows %d", c.Reconnects, len(res.Rows))
	}
	// The new transport carried the Hello, then the query with its template.
	if len(next.frames) != 2 {
		t.Fatalf("%d frames after the redial, want the Hello and one query", len(next.frames))
	}
	if slot, define := queryHead(t, next.frames[1]); slot != 1 || !define {
		t.Fatalf("replayed query: slot %d, carries template %v", slot, define)
	}
}

// TestShedRetryReferencesOwnSlot: a request the rate limiter sheds was
// decoded first, so its template is kept, and the client's retry names
// the slot instead of carrying the template again.
func TestShedRetryReferencesOwnSlot(t *testing.T) {
	e := testEngine(t)
	vc := netsim.NewVirtualClock()
	server := NewServer(e)
	server.Rate = admission.NewRateLimiter(admission.RateConfig{QPS: 1, Burst: 1, Clock: vc})
	conn, done := serveOnce(t, server)
	rec := &recordingConn{ReadWriter: conn}
	c, err := Dial(rec, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Clock, c.MaxRetries = vc, 1 // a backoff sleep refills the bucket
	if _, err := c.Query("SELECT COUNT(*) FROM proteins"); err != nil {
		t.Fatal(err)
	}
	from := len(rec.frames)
	const q = "SELECT COUNT(*) FROM activities WHERE affinity >= 6.5"
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query after a shed: %v", err)
	}
	if c.Sheds != 1 {
		t.Fatalf("Sheds = %d, want 1", c.Sheds)
	}
	sent := rec.frames[from:]
	if len(sent) != 2 {
		t.Fatalf("the shed query went out in %d frames, want 2", len(sent))
	}
	slot, define := queryHead(t, sent[0])
	retrySlot, retryDefines := queryHead(t, sent[1])
	if !define || retryDefines || retrySlot != slot || len(sent[1]) >= len(sent[0]) {
		t.Fatalf("shed frame: slot %d carrying its template %v; retry: slot %d carrying it %v, %d bytes after %d",
			slot, define, retrySlot, retryDefines, len(sent[1]), len(sent[0]))
	}
	c.Close()
	if err := waitSession(t, done); err != nil {
		t.Fatal(err)
	}
}

// FuzzStatementTemplate: for any text, the cuts are deterministic and
// ordered, every literal is non-empty, splicing the segments and
// literals gives the text back, and a client's frames — the template's
// first use and a later one — decode on the server to the text.
func FuzzStatementTemplate(f *testing.F) {
	for _, s := range []string{
		subtreeJoin("clade_21", 7.215), "x = 'it''s' AND y = ''", "'unterminated 5", "é9 9é 1.5.6 7.", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cuts := splitStmt(nil, text)
		if again := splitStmt(nil, text); !slices.Equal(again, cuts) {
			t.Fatalf("cut %v, then %v", cuts, again)
		}
		if len(cuts)%2 != 0 || cuts[0] != 0 || cuts[len(cuts)-1] != len(text) || !slices.IsSorted(cuts) {
			t.Fatalf("cuts %v of %d bytes", cuts, len(text))
		}
		var b strings.Builder
		for i := 0; i+1 < len(cuts); i++ {
			if i%2 == 1 && cuts[i] == cuts[i+1] {
				t.Fatalf("empty literal at %d", cuts[i])
			}
			b.WriteString(text[cuts[i]:cuts[i+1]])
		}
		if b.String() != text {
			t.Fatalf("splice %q, text %q", b.String(), text)
		}
		fw := frameWriter{enc: encoder{stmts: &stmtWriter{}}}
		fr := frameReader{stmts: &stmtTable{}}
		var wire bytes.Buffer
		r := bufio.NewReader(&wire)
		for range 2 {
			if _, err := fw.write(&wire, &Query{DTQL: text}, false); err != nil {
				t.Fatal(err)
			}
			msg, _, err := fr.read(r)
			if err != nil {
				t.Fatal(err)
			}
			if got := msg.(*Query).DTQL; got != text {
				t.Fatalf("server spliced %q, sent %q", got, text)
			}
		}
	})
}

// BenchmarkQueryRequest prices one analytics request on a warm session:
// the client's split and frame, naming the template's slot, then the
// server's read, decode and splice.
func BenchmarkQueryRequest(b *testing.B) {
	q := &Query{DTQL: subtreeJoin("clade_21", 7.215)}
	fw := frameWriter{enc: encoder{stmts: &stmtWriter{}}}
	fr := frameReader{stmts: &stmtTable{}}
	var wire bytes.Buffer
	r := bufio.NewReader(&wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		n, err := fw.write(&wire, q, false)
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
