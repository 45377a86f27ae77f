// Package mobile implements DrugTree's mobile interaction layer: a
// compact binary wire protocol, viewport/level-of-detail tree
// streaming, and delta encoding between interactions — the mechanisms
// that make tree navigation usable over cellular links. A simulated
// client drives sessions over netsim-shaped connections for the
// mobile experiments.
package mobile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"drugtree/internal/store"
)

// MsgType tags wire messages.
type MsgType uint8

const (
	// Client → server.
	MsgHello MsgType = iota + 1
	MsgOpen          // open a subtree by node name
	MsgQuery         // run a DTQL query
	MsgBye

	// Server → client.
	MsgTreeDelta
	MsgQueryResult
	MsgError

	// Protocol rev 2: freshness reporting.
	MsgStatusReq // client → server: ask for per-source freshness
	MsgStatus    // server → client: per-source freshness

	// Protocol rev 3: overload protection. RETRY tells the client the
	// server refused the request (or the whole session) under load and
	// when to come back; HELLO_ACK confirms a handshake so the client
	// can distinguish acceptance from refusal before sending work.
	MsgRetry
	MsgHelloAck

	// Protocol rev 4 adds no message: a WireNode holds tree facts only.
	// Its flags byte is the leaf bit alone, any other bit a decode
	// error; ParentPre is the tree parent, even at a view's focus; and
	// the client derives collapse from the nodes it holds
	// (Client.Collapsed).

	// Protocol rev 5 adds none either: a QUERY_RESULT is columnar, with
	// a string dictionary a column (reply.go), and a QUERY a statement
	// template sent once a session and its literals (stmt.go).
)

func (m MsgType) String() string {
	switch m {
	case MsgHello:
		return "HELLO"
	case MsgOpen:
		return "OPEN"
	case MsgQuery:
		return "QUERY"
	case MsgBye:
		return "BYE"
	case MsgTreeDelta:
		return "TREE_DELTA"
	case MsgQueryResult:
		return "QUERY_RESULT"
	case MsgError:
		return "ERROR"
	case MsgStatusReq:
		return "STATUS_REQ"
	case MsgStatus:
		return "STATUS"
	case MsgRetry:
		return "RETRY"
	case MsgHelloAck:
		return "HELLO_ACK"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(m))
}

// Strategy selects how the server ships tree data.
type Strategy uint8

const (
	// StrategyFull sends the entire tree on every interaction (the
	// baseline the poster's "lags" correspond to).
	StrategyFull Strategy = iota
	// StrategyLOD sends only the viewport-limited subtree.
	StrategyLOD
	// StrategyLODDelta sends only the viewport difference against
	// what the client already holds.
	StrategyLODDelta
)

func (s Strategy) String() string {
	switch s {
	case StrategyFull:
		return "full"
	case StrategyLOD:
		return "lod"
	case StrategyLODDelta:
		return "lod+delta"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// MaxBudget bounds a viewport budget: a Hello asking for more is
// refused, as is an HTTP GET /tree.
const MaxBudget = 100000

// errBudget is the decoding error of a Hello whose budget exceeds
// MaxBudget.
var errBudget = fmt.Errorf("viewport budget exceeds %d nodes", MaxBudget)

// Hello opens a session.
type Hello struct {
	Strategy Strategy
	// Budget is the max nodes the client viewport displays, at most
	// MaxBudget; zero or less means 100 (and is sent as zero).
	Budget int
	// Compress asks the server to deflate large responses.
	Compress bool
}

// Open requests the subtree rooted at a named node.
type Open struct {
	Node string
}

// Query runs DTQL server-side.
type Query struct {
	DTQL string
}

// WireNode is the on-wire representation of one visible tree node:
// facts of the tree alone, the same in every view of one tree version.
type WireNode struct {
	Pre       int64
	Name      string
	ParentPre int64 // the tree parent; −1 only at the tree root
	IsLeaf    bool
	LeafCount int64
	Length    float64
	X, Y      float64
}

// TreeDelta updates the client's node set.
type TreeDelta struct {
	// Reset tells the client to discard all nodes first.
	Reset bool
	Add   []WireNode
	// Remove lists pre numbers leaving the viewport.
	Remove []int64
	// Focus is the pre number the interaction centered on.
	Focus int64
}

// QueryResult returns DTQL output. A decoded QueryResult carries Rows,
// all of whose cells share one slab.
type QueryResult struct {
	Columns []string
	Rows    []store.Row
	// Batch, when set, holds the rows as columns and is encoded in place
	// of Rows, to the same bytes. The server sets it to the engine's
	// shared result, so the encoder only reads it.
	Batch *store.ColBatch
	// Dict decodes Batch's coded columns (the engine's query.Result.Dict);
	// it never goes on the wire, which carries the names.
	Dict *store.Dict
}

// ErrorMsg reports a failure.
type ErrorMsg struct {
	Text string
}

// StatusReq asks the server for per-source freshness. A mobile client
// polls it to badge stale panels instead of presenting degraded data
// as live.
type StatusReq struct{}

// SourceStatus is one ingestion source's freshness on the wire: a
// STATUS frame carries name, status, stale flag and age per source,
// nothing else. Config.Shards is a no-op, not a source, and adds no
// entry.
type SourceStatus struct {
	Name   string
	Status string // "fresh" | "degraded" | "failed"
	Stale  bool
	// AgeMs is milliseconds since the source last synced successfully.
	AgeMs int64
}

// StatusMsg answers a StatusReq. Empty Sources means the server has
// no freshness provider (static snapshot deployment).
type StatusMsg struct {
	Sources []SourceStatus
}

// RetryMsg tells the client the server shed this request (or refused
// the session during handshake) and suggests when to retry. A cellular
// client backs off rather than hammering a saturated uplink.
type RetryMsg struct {
	// AfterMS is the suggested wait before retrying, in milliseconds.
	AfterMS int64
}

// HelloAck accepts a handshake. Sent before any other server message
// so a client can tell acceptance from a RetryMsg refusal without
// racing its first request against the verdict.
type HelloAck struct {
	SessionID int64
}

// Bye closes a session.
type Bye struct{}

// encodeMsg returns msg's payload: its type byte and fields.
func encodeMsg(msg any) ([]byte, error) {
	var e encoder
	return e.appendMsg(nil, msg)
}

// encoder holds what encoding keeps between messages: a reply's string
// dictionary scratch and, on a client, its statement slots (nil: every
// QUERY goes in slot 0).
type encoder struct {
	seen  map[string]uint32 // a STRING column's distinct cells, by first appearance
	dict  []dictEntry       // and in a slice, then sorted
	codes []uint32          // each row's first-appearance number
	rank  []uint32          // each first-appearance number's sorted place
	stmts *stmtWriter
}

// appendMsg appends msg's payload to b.
func (e *encoder) appendMsg(b []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case *Hello:
		b = append(b, byte(MsgHello), byte(m.Strategy))
		b = binary.AppendUvarint(b, uint64(max(m.Budget, 0)))
		b = appendFlag(b, m.Compress)
	case *Open:
		b = append(b, byte(MsgOpen))
		b = appendStr(b, m.Node)
	case *Query:
		b = appendQuery(append(b, byte(MsgQuery)), e.stmts, m.DTQL)
	case *Bye:
		b = append(b, byte(MsgBye))
	case *TreeDelta:
		b = append(b, byte(MsgTreeDelta))
		b = appendFlag(b, m.Reset)
		b = binary.AppendVarint(b, m.Focus)
		b = binary.AppendUvarint(b, uint64(len(m.Add)))
		for _, n := range m.Add {
			b = appendWireNode(b, n)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Remove)))
		for _, pre := range m.Remove {
			b = binary.AppendVarint(b, pre)
		}
	case *QueryResult:
		return e.appendReply(b, m)
	case *ErrorMsg:
		b = append(b, byte(MsgError))
		b = appendStr(b, m.Text)
	case *RetryMsg:
		b = append(b, byte(MsgRetry))
		b = binary.AppendVarint(b, m.AfterMS)
	case *HelloAck:
		b = append(b, byte(MsgHelloAck))
		b = binary.AppendVarint(b, m.SessionID)
	case *StatusReq:
		b = append(b, byte(MsgStatusReq))
	case *StatusMsg:
		b = append(b, byte(MsgStatus))
		b = binary.AppendUvarint(b, uint64(len(m.Sources)))
		for _, s := range m.Sources {
			b = appendStr(b, s.Name)
			b = appendStr(b, s.Status)
			b = appendFlag(b, s.Stale)
			b = binary.AppendVarint(b, s.AgeMs)
		}
	default:
		return b, fmt.Errorf("mobile: cannot encode %T", msg)
	}
	return b, nil
}

// decodeMsg decodes one message payload.
func decodeMsg(p []byte) (any, error) {
	d := decoder{p: p, size: len(p)}
	return d.msg()
}

// decoder reads one message payload. Every count it reads is checked
// against the bytes left before anything is sized by it, so a payload
// cannot make it allocate more than a small multiple of its own length.
// Varints must be minimal, flag bytes 0 or 1 and the payload used up
// exactly, so a payload it accepts re-encodes to its own bytes. The
// first failure sticks: later reads return zero values.
type decoder struct {
	p    []byte
	size int // the payload's length
	cost int // what decoding a reply allocates, as reply.go counts it
	err  error
	// names interns column names across messages; nil copies each one.
	names map[string]string
	stmts *stmtTable // statement templates across messages; nil: slot 0 only
}

// minWireNode is the shortest encoding of a WireNode: five one-byte
// fields and three floats.
const minWireNode = 5 + 3*8

// errShort reports a payload that ends before its fields do.
var errShort = errors.New("message truncated")

func (d *decoder) msg() (any, error) {
	if len(d.p) == 0 {
		return nil, errors.New("mobile: empty message")
	}
	t := MsgType(d.byte())
	var msg any
	switch t {
	case MsgHello:
		msg = &Hello{Strategy: Strategy(d.byte()), Budget: d.budget(), Compress: d.flag()}
	case MsgOpen:
		msg = &Open{Node: d.str()}
	case MsgQuery:
		msg = d.query()
	case MsgBye:
		msg = &Bye{}
	case MsgTreeDelta:
		msg = d.treeDelta()
	case MsgQueryResult:
		msg = d.queryResult()
	case MsgError:
		msg = &ErrorMsg{Text: d.str()}
	case MsgRetry:
		msg = &RetryMsg{AfterMS: d.varint()}
	case MsgHelloAck:
		msg = &HelloAck{SessionID: d.varint()}
	case MsgStatusReq:
		msg = &StatusReq{}
	case MsgStatus:
		m := &StatusMsg{}
		if n := d.count(4); n > 0 {
			m.Sources = make([]SourceStatus, n)
			for i := 0; i < n && d.err == nil; i++ {
				m.Sources[i] = SourceStatus{Name: d.str(), Status: d.str(), Stale: d.flag(), AgeMs: d.varint()}
			}
		}
		msg = m
	default:
		return nil, fmt.Errorf("mobile: unknown message type %d", t)
	}
	if d.err == nil && len(d.p) > 0 {
		d.fail(fmt.Errorf("%d bytes after the message", len(d.p)))
	}
	if d.err != nil {
		return nil, fmt.Errorf("mobile: decoding %v: %w", t, d.err)
	}
	return msg, nil
}

func (d *decoder) treeDelta() *TreeDelta {
	m := &TreeDelta{Reset: d.flag(), Focus: d.varint()}
	if n := d.count(minWireNode); n > 0 {
		m.Add = make([]WireNode, n)
		for i := 0; i < n && d.err == nil; i++ {
			m.Add[i] = d.wireNode()
		}
	}
	if n := d.count(1); n > 0 {
		m.Remove = make([]int64, n)
		for i := range m.Remove {
			m.Remove[i] = d.varint()
		}
	}
	return m
}

func (d *decoder) wireNode() WireNode {
	n := WireNode{Pre: d.varint(), Name: d.str(), ParentPre: d.varint(), IsLeaf: d.flag()}
	n.LeafCount = int64(d.uvarint())
	n.Length, n.X, n.Y = d.f64(), d.f64(), d.f64()
	return n
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.p = nil
}

// take consumes the next n bytes; the slice aliases the payload.
func (d *decoder) take(n uint64) []byte {
	if n > uint64(len(d.p)) {
		d.fail(errShort)
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *decoder) byte() byte {
	if b := d.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (d *decoder) flag() bool {
	b := d.byte()
	if b > 1 {
		d.fail(fmt.Errorf("flag byte %d", b))
	}
	return b == 1
}

// budget reads a Hello's viewport budget, refusing one above
// MaxBudget before it is narrowed to an int.
func (d *decoder) budget() int {
	x := d.uvarint()
	if x > MaxBudget {
		d.fail(errBudget)
		return 0
	}
	return int(x)
}

func (d *decoder) uvarint() uint64 {
	if len(d.p) > 0 && d.p[0] < 0x80 { // one byte, minimal by itself
		x := uint64(d.p[0])
		d.p = d.p[1:]
		return x
	}
	x, n := binary.Uvarint(d.p)
	switch {
	case n == 0:
		d.fail(errShort)
		return 0
	case n < 0:
		d.fail(errors.New("varint overflows 64 bits"))
		return 0
	case n != uvarintLen(x):
		d.fail(errors.New("varint not minimally encoded"))
		return 0
	}
	d.p = d.p[n:]
	return x
}

// varint reads a zigzag varint (binary.AppendVarint's format).
func (d *decoder) varint() int64 {
	ux := d.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// count reads an item count and fails unless the bytes left could hold
// that many items of at least minBytes each.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.p)/minBytes) {
		d.fail(errShort)
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string, copying its bytes once.
func (d *decoder) str() string {
	return string(d.take(d.uvarint()))
}

// name is str for a column name: interned when the decoder keeps names,
// so a client repeating a statement holds one copy of its column names.
func (d *decoder) name() string {
	b := d.take(d.uvarint())
	if d.names == nil {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if len(d.names) >= maxInterned {
		clear(d.names)
	}
	s := string(b)
	d.names[s] = s
	return s
}

func (d *decoder) f64() float64 {
	if b := d.take(8); len(b) == 8 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendWireNode(b []byte, n WireNode) []byte {
	b = binary.AppendVarint(b, n.Pre)
	b = appendStr(b, n.Name)
	b = binary.AppendVarint(b, n.ParentPre)
	b = appendFlag(b, n.IsLeaf)
	b = binary.AppendUvarint(b, uint64(n.LeafCount))
	b = appendF64(b, n.Length)
	b = appendF64(b, n.X)
	b = appendF64(b, n.Y)
	return b
}

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}
