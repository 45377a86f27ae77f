package mobile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

// BusyError reports that the server turned the session or a request
// away under load. After carries the server's retry hint; callers
// that exhaust their retry budget surface it to the user as "try
// again shortly" rather than a failure.
type BusyError struct {
	After time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("mobile: server busy, retry after %v", e.After)
}

// IsBusy reports whether err is a server-busy refusal.
func IsBusy(err error) bool {
	var be *BusyError
	return errors.As(err, &be)
}

// Client is the simulated mobile client: it speaks the wire protocol
// over any stream (typically a netsim-shaped connection), maintains
// the node set a real app would render, and measures per-interaction
// latency — the physical-handset substitute for the paper's mobile
// front end.
type Client struct {
	conn io.ReadWriter
	r    *bufio.Reader
	in   frameReader // reads every reply, interning column names
	out  frameWriter // frames every request

	strategy Strategy
	budget   int
	compress bool

	// Redial, when set, reopens the transport after an I/O failure:
	// the client redials, replays its Hello, and retries the request —
	// a phone walking between cell towers mid-session.
	Redial func() (io.ReadWriter, error)
	// MaxRedials bounds reconnect attempts per interaction (0 with
	// Redial set still disables reconnecting).
	MaxRedials int
	// Reconnects counts successful session re-establishments.
	Reconnects int

	// Backoff shapes the wait before retrying a request the server
	// shed (answered with a RetryMsg): the server's hint plus a
	// jittered exponential component so a fleet of shed clients
	// decorrelates. The zero value adds nothing beyond the hint.
	Backoff source.RetryPolicy
	// MaxRetries bounds shed retries per interaction; zero surfaces
	// the first RetryMsg as a BusyError immediately.
	MaxRetries int
	// Sheds counts RetryMsg responses received.
	Sheds int

	// Clock measures per-interaction latency and paces shed-retry
	// backoff. dial sets the wall clock; deterministic tests swap in a
	// netsim.VirtualClock.
	Clock netsim.Clock

	// SessionID is the server-assigned id from the HelloAck.
	SessionID int64

	rng *rand.Rand // jitter stream for Backoff

	// Nodes is the client-side render model keyed by pre number.
	Nodes map[int64]WireNode
	// Latencies records one duration per interaction.
	Latencies []time.Duration
	// BytesDown sums the encoded sizes of server responses.
	BytesDown int64
}

// Dial starts a session with the given strategy and viewport budget.
func Dial(conn io.ReadWriter, strategy Strategy, budget int) (*Client, error) {
	return dial(conn, strategy, budget, false)
}

// DialCompressed starts a session that asks the server to deflate
// large responses.
func DialCompressed(conn io.ReadWriter, strategy Strategy, budget int) (*Client, error) {
	return dial(conn, strategy, budget, true)
}

func dial(conn io.ReadWriter, strategy Strategy, budget int, compress bool) (*Client, error) {
	c := &Client{
		conn:     conn,
		r:        bufio.NewReader(conn),
		strategy: strategy,
		budget:   budget,
		compress: compress,
		Clock:    netsim.NewWallClock(),
		Nodes:    make(map[int64]WireNode),
	}
	c.in.names = make(map[string]string)
	if err := WriteMsg(conn, &Hello{Strategy: strategy, Budget: budget, Compress: compress}); err != nil {
		return nil, err
	}
	if err := c.readHelloVerdict(); err != nil {
		return nil, err
	}
	return c, nil
}

// readHelloVerdict consumes the server's handshake reply: a HelloAck
// accepts the session, a RetryMsg refuses it with a retry hint. Ack
// bytes are protocol overhead, not payload, so they are excluded from
// BytesDown.
func (c *Client) readHelloVerdict() error {
	msg, _, err := c.in.read(c.r)
	if err != nil {
		return fmt.Errorf("mobile: reading hello ack: %w", err)
	}
	switch m := msg.(type) {
	case *HelloAck:
		c.SessionID = m.SessionID
		return nil
	case *RetryMsg:
		return &BusyError{After: time.Duration(m.AfterMS) * time.Millisecond}
	case *ErrorMsg:
		return fmt.Errorf("mobile: server error: %s", m.Text)
	}
	return fmt.Errorf("mobile: unexpected handshake reply %T", msg)
}

// exchange performs one request/response on the current transport.
func (c *Client) exchange(req any) (any, int64, error) {
	if _, err := c.out.write(c.conn, req, false); err != nil {
		return nil, 0, err
	}
	return c.in.read(c.r)
}

// reconnect redials and replays the session handshake.
func (c *Client) reconnect() error {
	conn, err := c.Redial()
	if err != nil {
		return fmt.Errorf("mobile: redial: %w", err)
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	if err := WriteMsg(conn, &Hello{Strategy: c.strategy, Budget: c.budget, Compress: c.compress}); err != nil {
		return fmt.Errorf("mobile: replaying hello: %w", err)
	}
	if err := c.readHelloVerdict(); err != nil {
		return fmt.Errorf("mobile: replaying hello: %w", err)
	}
	c.Reconnects++
	return nil
}

// backoffRNG lazily builds the jitter stream for shed-retry backoff.
func (c *Client) backoffRNG() *rand.Rand {
	if c.rng == nil {
		seed := c.Backoff.JitterSeed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c.rng
}

// roundTrip sends req and reads the response, reconnecting through
// Redial (at most MaxRedials times) when the transport fails
// mid-interaction, and honoring server RetryMsg sheds by waiting out
// the hint plus jittered Backoff (at most MaxRetries times). Server
// ErrorMsg responses are application-level and never trigger a
// reconnect or retry.
func (c *Client) roundTrip(req any) (any, int64, error) {
	redials, retries := 0, 0
	for {
		msg, wire, err := c.exchange(req)
		if err != nil {
			if c.Redial == nil || redials >= c.MaxRedials {
				return nil, 0, err
			}
			redials++
			if rerr := c.reconnect(); rerr != nil && redials >= c.MaxRedials {
				return nil, 0, rerr
			}
			continue
		}
		rm, ok := msg.(*RetryMsg)
		if !ok {
			return msg, wire, nil
		}
		// The server shed this request: honor its hint, add jittered
		// backoff, and retry until the per-interaction budget runs out.
		c.Sheds++
		hint := time.Duration(rm.AfterMS) * time.Millisecond
		if retries >= c.MaxRetries {
			return nil, 0, &BusyError{After: hint}
		}
		retries++
		c.Clock.Sleep(hint + c.Backoff.Delay(retries, c.backoffRNG()))
	}
}

// Open requests a subtree and applies the server's delta to the local
// render model.
func (c *Client) Open(node string) (*TreeDelta, error) {
	start := c.Clock.Now()
	msg, wire, err := c.roundTrip(&Open{Node: node})
	if err != nil {
		return nil, err
	}
	c.Latencies = append(c.Latencies, c.Clock.Now()-start)
	switch m := msg.(type) {
	case *TreeDelta:
		c.BytesDown += wire
		c.apply(m)
		return m, nil
	case *ErrorMsg:
		return nil, fmt.Errorf("mobile: server error: %s", m.Text)
	}
	return nil, fmt.Errorf("mobile: unexpected response %T", msg)
}

// Query runs DTQL server-side and returns the result.
func (c *Client) Query(dtql string) (*QueryResult, error) {
	start := c.Clock.Now()
	msg, wire, err := c.roundTrip(&Query{DTQL: dtql})
	if err != nil {
		return nil, err
	}
	c.Latencies = append(c.Latencies, c.Clock.Now()-start)
	switch m := msg.(type) {
	case *QueryResult:
		c.BytesDown += wire
		return m, nil
	case *ErrorMsg:
		return nil, fmt.Errorf("mobile: server error: %s", m.Text)
	}
	return nil, fmt.Errorf("mobile: unexpected response %T", msg)
}

// Status asks the server for per-source freshness, so the app can
// badge panels backed by stale data.
func (c *Client) Status() (*StatusMsg, error) {
	msg, wire, err := c.roundTrip(&StatusReq{})
	if err != nil {
		return nil, err
	}
	switch m := msg.(type) {
	case *StatusMsg:
		c.BytesDown += wire
		return m, nil
	case *ErrorMsg:
		return nil, fmt.Errorf("mobile: server error: %s", m.Text)
	}
	return nil, fmt.Errorf("mobile: unexpected response %T", msg)
}

// Close ends the session.
func (c *Client) Close() error {
	return WriteMsg(c.conn, &Bye{})
}

// apply folds a delta into the render model.
func (c *Client) apply(d *TreeDelta) {
	if d.Reset {
		c.Nodes = make(map[int64]WireNode, len(d.Add))
	}
	for _, pre := range d.Remove {
		delete(c.Nodes, pre)
	}
	for _, n := range d.Add {
		c.Nodes[n.Pre] = n
	}
}

// VisibleLeaves counts rendered leaf nodes (collapsed markers count
// once).
func (c *Client) VisibleLeaves() int {
	n := 0
	for _, node := range c.Nodes {
		if node.IsLeaf || node.Collapsed {
			n++
		}
	}
	return n
}

// RowsAsStrings renders a query result's rows for assertions/demos.
func RowsAsStrings(q *QueryResult) []string {
	out := make([]string, len(q.Rows))
	for i, r := range q.Rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += " | "
			}
			if v.K == store.KindString {
				s += v.S
			} else {
				s += v.String()
			}
		}
		out[i] = s
	}
	return out
}
