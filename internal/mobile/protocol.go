// Package mobile implements DrugTree's mobile interaction layer: a
// compact binary wire protocol, viewport/level-of-detail tree
// streaming, and delta encoding between interactions — the mechanisms
// that make tree navigation usable over cellular links. A simulated
// client drives sessions over netsim-shaped connections for the
// mobile experiments.
package mobile

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
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

// Hello opens a session.
type Hello struct {
	Strategy Strategy
	// Budget is the max nodes the client viewport displays.
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

// WireNode is the on-wire representation of one visible tree node.
type WireNode struct {
	Pre       int64
	Name      string
	ParentPre int64
	IsLeaf    bool
	Collapsed bool // true when the node summarizes a pruned subtree
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

// QueryResult returns DTQL output.
type QueryResult struct {
	Columns []string
	Rows    []store.Row
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
// nothing else. Shards are copies of one store, not sources, and have
// no entry.
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

// maxFrame bounds one message (defensive).
const maxFrame = 64 << 20

// Frame layout: uvarint body length, then body = flag byte + payload.
// flag 0 is a raw payload; flag 1 a DEFLATE-compressed payload.
const (
	frameRaw     = 0
	frameDeflate = 1
	// compressThreshold is the minimum payload size worth deflating;
	// below it the flate header overhead wins.
	compressThreshold = 512
)

// WriteMsg frames and writes one message uncompressed. It returns the
// number of bytes put on the wire.
func WriteMsg(w io.Writer, msg any) error {
	_, err := writeMsg(w, msg, false)
	return err
}

// WriteMsgCompressed frames one message, deflating payloads above the
// size threshold. It returns the bytes put on the wire.
func WriteMsgCompressed(w io.Writer, msg any) (int64, error) {
	return writeMsg(w, msg, true)
}

func writeMsg(w io.Writer, msg any, allowCompress bool) (int64, error) {
	payload, err := encodeMsg(msg)
	if err != nil {
		return 0, err
	}
	flag := byte(frameRaw)
	if allowCompress && len(payload) >= compressThreshold {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			return 0, err
		}
		if _, err := fw.Write(payload); err != nil {
			return 0, err
		}
		if err := fw.Close(); err != nil {
			return 0, err
		}
		if buf.Len() < len(payload) {
			payload = buf.Bytes()
			flag = frameDeflate
		}
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+1))
	if _, err := w.Write(hdr[:n]); err != nil {
		return 0, err
	}
	if _, err := w.Write([]byte{flag}); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(n + 1 + len(payload)), nil
}

// ReadMsg reads one framed message, returning the decoded message and
// the number of bytes it occupied on the wire (so clients can account
// for compression accurately).
func ReadMsg(r *bufio.Reader) (any, int64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, err
	}
	if n > maxFrame {
		return nil, 0, fmt.Errorf("mobile: frame of %d bytes exceeds limit", n)
	}
	if n < 1 {
		return nil, 0, fmt.Errorf("mobile: empty frame")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	wire := int64(uvarintLen(n) + len(body))
	payload := body[1:]
	if body[0] == frameDeflate {
		fr := flate.NewReader(bytes.NewReader(payload))
		raw, err := io.ReadAll(io.LimitReader(fr, maxFrame))
		if err != nil {
			return nil, 0, fmt.Errorf("mobile: inflating frame: %w", err)
		}
		fr.Close()
		payload = raw
	} else if body[0] != frameRaw {
		return nil, 0, fmt.Errorf("mobile: unknown frame flag %d", body[0])
	}
	msg, err := decodeMsg(payload)
	return msg, wire, err
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// MsgSize returns the uncompressed framed size of a message, for byte
// accounting without writing.
func MsgSize(msg any) (int64, error) {
	payload, err := encodeMsg(msg)
	if err != nil {
		return 0, err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+1))
	return int64(n + 1 + len(payload)), nil
}

func encodeMsg(msg any) ([]byte, error) {
	var b []byte
	switch m := msg.(type) {
	case *Hello:
		b = append(b, byte(MsgHello), byte(m.Strategy))
		b = binary.AppendUvarint(b, uint64(m.Budget))
		if m.Compress {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case *Open:
		b = append(b, byte(MsgOpen))
		b = appendStr(b, m.Node)
	case *Query:
		b = append(b, byte(MsgQuery))
		b = appendStr(b, m.DTQL)
	case *Bye:
		b = append(b, byte(MsgBye))
	case *TreeDelta:
		b = append(b, byte(MsgTreeDelta))
		if m.Reset {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
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
		b = append(b, byte(MsgQueryResult))
		b = binary.AppendUvarint(b, uint64(len(m.Columns)))
		for _, c := range m.Columns {
			b = appendStr(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Rows)))
		for _, r := range m.Rows {
			b = store.AppendRow(b, r)
		}
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
			if s.Stale {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = binary.AppendVarint(b, s.AgeMs)
		}
	default:
		return nil, fmt.Errorf("mobile: cannot encode %T", msg)
	}
	return b, nil
}

// Bye closes a session.
type Bye struct{}

func decodeMsg(p []byte) (any, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("mobile: empty message")
	}
	r := bytes.NewReader(p[1:])
	switch MsgType(p[0]) {
	case MsgHello:
		sb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		budget, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		cb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		return &Hello{Strategy: Strategy(sb), Budget: int(budget), Compress: cb == 1}, nil
	case MsgOpen:
		s, err := readStr(r)
		if err != nil {
			return nil, err
		}
		return &Open{Node: s}, nil
	case MsgQuery:
		s, err := readStr(r)
		if err != nil {
			return nil, err
		}
		return &Query{DTQL: s}, nil
	case MsgBye:
		return &Bye{}, nil
	case MsgTreeDelta:
		rb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		focus, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		nAdd, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if nAdd > maxFrame/8 {
			return nil, fmt.Errorf("mobile: add count %d too large", nAdd)
		}
		d := &TreeDelta{Reset: rb == 1, Focus: focus}
		for i := uint64(0); i < nAdd; i++ {
			wn, err := readWireNode(r)
			if err != nil {
				return nil, err
			}
			d.Add = append(d.Add, wn)
		}
		nRem, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if nRem > maxFrame/2 {
			return nil, fmt.Errorf("mobile: remove count %d too large", nRem)
		}
		for i := uint64(0); i < nRem; i++ {
			pre, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			d.Remove = append(d.Remove, pre)
		}
		return d, nil
	case MsgQueryResult:
		nCols, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if nCols > 4096 {
			return nil, fmt.Errorf("mobile: column count %d too large", nCols)
		}
		q := &QueryResult{}
		for i := uint64(0); i < nCols; i++ {
			c, err := readStr(r)
			if err != nil {
				return nil, err
			}
			q.Columns = append(q.Columns, c)
		}
		nRows, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if nRows > maxFrame/4 {
			return nil, fmt.Errorf("mobile: row count %d too large", nRows)
		}
		for i := uint64(0); i < nRows; i++ {
			row, err := store.ReadRow(r)
			if err != nil {
				return nil, err
			}
			q.Rows = append(q.Rows, row)
		}
		return q, nil
	case MsgError:
		s, err := readStr(r)
		if err != nil {
			return nil, err
		}
		return &ErrorMsg{Text: s}, nil
	case MsgRetry:
		ms, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		return &RetryMsg{AfterMS: ms}, nil
	case MsgHelloAck:
		id, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		return &HelloAck{SessionID: id}, nil
	case MsgStatusReq:
		return &StatusReq{}, nil
	case MsgStatus:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if n > 4096 {
			return nil, fmt.Errorf("mobile: source count %d too large", n)
		}
		m := &StatusMsg{}
		for i := uint64(0); i < n; i++ {
			var s SourceStatus
			if s.Name, err = readStr(r); err != nil {
				return nil, err
			}
			if s.Status, err = readStr(r); err != nil {
				return nil, err
			}
			sb, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			s.Stale = sb == 1
			if s.AgeMs, err = binary.ReadVarint(r); err != nil {
				return nil, err
			}
			m.Sources = append(m.Sources, s)
		}
		return m, nil
	}
	return nil, fmt.Errorf("mobile: unknown message type %d", p[0])
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readStr(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxFrame {
		return "", fmt.Errorf("mobile: string of %d bytes exceeds limit", n)
	}
	b := make([]byte, n)
	if err := readFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readFull is io.ReadFull on the concrete reader, so a caller's stack
// buffer does not escape through an io.Reader: a *bytes.Reader comes
// up short only where the frame ends.
func readFull(r *bytes.Reader, b []byte) error {
	n, err := r.Read(b)
	if n == len(b) {
		return nil
	}
	if n > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

func appendWireNode(b []byte, n WireNode) []byte {
	b = binary.AppendVarint(b, n.Pre)
	b = appendStr(b, n.Name)
	b = binary.AppendVarint(b, n.ParentPre)
	flags := byte(0)
	if n.IsLeaf {
		flags |= 1
	}
	if n.Collapsed {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(n.LeafCount))
	b = appendF64(b, n.Length)
	b = appendF64(b, n.X)
	b = appendF64(b, n.Y)
	return b
}

func readWireNode(r *bytes.Reader) (WireNode, error) {
	var n WireNode
	var err error
	if n.Pre, err = binary.ReadVarint(r); err != nil {
		return n, err
	}
	if n.Name, err = readStr(r); err != nil {
		return n, err
	}
	if n.ParentPre, err = binary.ReadVarint(r); err != nil {
		return n, err
	}
	flags, err := r.ReadByte()
	if err != nil {
		return n, err
	}
	n.IsLeaf = flags&1 != 0
	n.Collapsed = flags&2 != 0
	lc, err := binary.ReadUvarint(r)
	if err != nil {
		return n, err
	}
	n.LeafCount = int64(lc)
	if n.Length, err = readF64(r); err != nil {
		return n, err
	}
	if n.X, err = readF64(r); err != nil {
		return n, err
	}
	if n.Y, err = readF64(r); err != nil {
		return n, err
	}
	return n, nil
}

func appendF64(b []byte, f float64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
	return append(b, tmp[:]...)
}

func readF64(r *bytes.Reader) (float64, error) {
	var tmp [8]byte
	if err := readFull(r, tmp[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])), nil
}
