package mobile

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/core"
)

// Refusal errors returned by ServeConn when a session is turned away
// at the handshake. The client saw a RetryMsg, not a hard failure.
var (
	// ErrSessionLimit means MaxSessions concurrent sessions were
	// already active.
	ErrSessionLimit = errors.New("mobile: session limit reached")
	// ErrDraining means the server is shutting down gracefully and
	// refuses new sessions.
	ErrDraining = errors.New("mobile: server draining")
)

// defaultRetryAfter is the retry hint sent with a RetryMsg when no
// better estimate exists (session refusal, unspecified RetryAfter).
const defaultRetryAfter = 250 * time.Millisecond

// defaultDrainTimeout bounds the graceful drain Serve runs when its
// context is cancelled.
const defaultDrainTimeout = 5 * time.Second

// Server speaks the mobile protocol over stream connections, one
// session per connection.
type Server struct {
	engine *core.Engine
	// Async does nothing. An Open runs no prefetch, in the background
	// or otherwise; the field is kept only because the repository
	// benchmark under bench/ still sets it.
	Async bool
	// ReadTimeout bounds the wait for each client message on
	// connections that support read deadlines (net.Conn); zero waits
	// forever. A phone that goes dark mid-session then releases its
	// server goroutine instead of pinning it.
	ReadTimeout time.Duration
	// Now supplies the wall time used to arm read deadlines
	// (net.Conn deadlines are absolute wall times). Nil uses the real
	// wall clock; tests inject a scripted function.
	Now func() time.Time

	// MaxSessions caps concurrent sessions; beyond it a handshake is
	// answered with a RetryMsg instead of a HelloAck. Zero means
	// unlimited.
	MaxSessions int
	// RetryAfter is the hint attached to session-refusal RetryMsgs;
	// zero uses defaultRetryAfter.
	RetryAfter time.Duration
	// Rate, when set, applies a per-session token bucket to Open and
	// Query messages; a client that exceeds it gets a RetryMsg with a
	// refill-based hint rather than an error.
	Rate *admission.RateLimiter
	// DrainTimeout bounds the graceful drain Serve performs when its
	// context is cancelled; zero uses defaultDrainTimeout.
	DrainTimeout time.Duration

	// panicHook, when set, runs before each message dispatch; tests
	// use it to drive the panic-recovery path.
	panicHook func(msg any)

	mu       sync.Mutex
	sessions int64 // total sessions accepted (historical counter)
	nextID   int64
	active   map[*connState]struct{}
	draining bool
	drained  chan struct{} // closed when draining and active empties
}

// connState tracks one live session for drain coordination.
type connState struct {
	conn   io.ReadWriter
	busy   bool // a dispatch is executing
	closed bool // the server closed this conn (drain)
}

// NewServer wraps an engine.
func NewServer(e *core.Engine) *Server {
	return &Server{engine: e}
}

// Sessions returns the number of sessions served.
func (s *Server) Sessions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// ActiveSessions returns the number of currently live sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.active)
}

func (s *Server) retryHint() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return defaultRetryAfter
}

// register admits a new session, refusing it while draining or at the
// MaxSessions cap.
func (s *Server) register(conn io.ReadWriter) (*connState, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, ErrDraining
	}
	if s.MaxSessions > 0 && len(s.active) >= s.MaxSessions {
		return nil, 0, ErrSessionLimit
	}
	s.sessions++
	s.nextID++
	cs := &connState{conn: conn}
	if s.active == nil {
		s.active = make(map[*connState]struct{})
	}
	s.active[cs] = struct{}{}
	return cs, s.nextID, nil
}

// unregister retires a session and, when it was the last one a drain
// was waiting on, releases the drain.
func (s *Server) unregister(cs *connState) {
	s.mu.Lock()
	delete(s.active, cs)
	var release chan struct{}
	if s.draining && len(s.active) == 0 && s.drained != nil {
		release = s.drained
		s.drained = nil
	}
	s.mu.Unlock()
	if release != nil {
		close(release)
	}
}

// beginDispatch marks the session busy so a concurrent Drain lets the
// in-flight interaction finish. It reports false when the server
// already closed the conn (the session should end quietly).
func (s *Server) beginDispatch(cs *connState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs.closed {
		return false
	}
	cs.busy = true
	return true
}

// endDispatch clears the busy flag; if a drain started meanwhile the
// conn is closed now that its response is on the wire.
func (s *Server) endDispatch(cs *connState) {
	s.mu.Lock()
	cs.busy = false
	closeNow := s.draining && !cs.closed
	if closeNow {
		cs.closed = true
	}
	s.mu.Unlock()
	if closeNow {
		if c, ok := cs.conn.(io.Closer); ok {
			_ = c.Close()
		}
	}
}

// connClosed reports whether the server closed this session's conn.
func (s *Server) connClosed(cs *connState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cs.closed
}

// Drain stops admitting sessions, lets in-flight interactions finish,
// and closes idle connections. It returns once every session has
// ended, or ctx's error after force-closing whatever remains when ctx
// expires first. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	s.draining = true
	empty := len(s.active) == 0
	if !empty && s.drained == nil {
		s.drained = make(chan struct{})
	}
	done := s.drained
	var idle []io.Closer
	for cs := range s.active {
		if !cs.busy && !cs.closed {
			cs.closed = true
			if c, ok := cs.conn.(io.Closer); ok {
				idle = append(idle, c)
			}
		}
	}
	s.mu.Unlock()
	for _, c := range idle {
		_ = c.Close()
	}
	if empty {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		var force []io.Closer
		for cs := range s.active {
			if !cs.closed {
				cs.closed = true
				if c, ok := cs.conn.(io.Closer); ok {
					force = append(force, c)
				}
			}
		}
		s.mu.Unlock()
		for _, c := range force {
			_ = c.Close()
		}
		return ctx.Err()
	}
}

// Serve accepts connections until the listener closes or ctx is
// cancelled. Cancellation is graceful: the listener stops accepting,
// in-flight interactions finish (bounded by DrainTimeout), and only
// then do remaining sessions abort.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Sessions run detached from ctx so cancellation drains instead of
	// aborting mid-response; cancelSessions is the post-drain hammer.
	sessCtx, cancelSessions := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelSessions()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = l.Close()
		case <-stop:
		}
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() == nil {
				return err
			}
			dt := s.DrainTimeout
			if dt <= 0 {
				dt = defaultDrainTimeout
			}
			dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), dt)
			defer cancel()
			if derr := s.Drain(dctx); derr != nil {
				return fmt.Errorf("mobile: drain: %w", derr)
			}
			return ctx.Err()
		}
		go func() {
			defer conn.Close()
			_ = s.ServeConn(sessCtx, conn)
		}()
	}
}

// session is per-connection state.
type session struct {
	strategy Strategy
	budget   int
	compress bool
	key      string      // per-session rate-limit bucket key
	lod      lodSession  // the held node set and viewport buffers of StrategyLODDelta
	out      frameWriter // frames every reply respond sends
}

// armReadDeadline applies the server's per-message read deadline when
// the connection supports one.
func (s *Server) armReadDeadline(conn io.ReadWriter) {
	if s.ReadTimeout <= 0 {
		return
	}
	now := s.Now
	if now == nil {
		now = wallNow
	}
	if d, ok := conn.(interface{ SetReadDeadline(time.Time) error }); ok {
		_ = d.SetReadDeadline(now().Add(s.ReadTimeout))
	}
}

// statusMsg snapshots per-source freshness for the wire: one entry
// per ingestion source, none for a static snapshot.
func (s *Server) statusMsg() *StatusMsg {
	out := &StatusMsg{}
	for _, h := range s.engine.SourceHealth() {
		out.Sources = append(out.Sources, SourceStatus{
			Name:   h.Source,
			Status: h.Status.String(),
			Stale:  h.Stale,
			AgeMs:  h.Age.Milliseconds(),
		})
	}
	return out
}

// ServeConn runs one session to completion. Queries execute under
// ctx, so cancelling it aborts a session mid-query. A panic anywhere
// in the session is confined to it: the client gets an ErrorMsg and
// the server keeps accepting other sessions.
//
// The handshake is read before admission so the verdict — HelloAck or
// RetryMsg — is always a reply the client is waiting for; answering
// before reading would deadlock fully-synchronous transports
// (net.Pipe) with both ends blocked writing.
func (s *Server) ServeConn(ctx context.Context, conn io.ReadWriter) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.engine.Metrics.Counter("mobile.session_panics").Inc()
			_ = WriteMsg(conn, &ErrorMsg{Text: "internal server error"})
			err = fmt.Errorf("mobile: session panic: %v", rec)
		}
	}()

	r := bufio.NewReader(conn)
	// Templates are kept as frames decode, before rate limiting or
	// admission: a shed request may come back naming its own slot.
	in := frameReader{stmts: new(stmtTable)}
	// First message must be Hello.
	s.armReadDeadline(conn)
	first, _, err := in.read(r)
	if err != nil {
		if errors.Is(err, errBudget) {
			// The session ends either way; the reply tells the client why.
			_ = WriteMsg(conn, &ErrorMsg{Text: errBudget.Error()})
		}
		return fmt.Errorf("mobile: reading hello: %w", err)
	}
	hello, ok := first.(*Hello)
	if !ok {
		WriteMsg(conn, &ErrorMsg{Text: "expected HELLO"})
		return fmt.Errorf("mobile: first message was %T", first)
	}
	cs, id, err := s.register(conn)
	if err != nil {
		s.engine.Metrics.Counter("mobile.sessions_refused").Inc()
		if werr := WriteMsg(conn, &RetryMsg{AfterMS: s.retryHint().Milliseconds()}); werr != nil {
			return fmt.Errorf("mobile: refusing session: %w", werr)
		}
		return err
	}
	defer s.unregister(cs)
	if err := WriteMsg(conn, &HelloAck{SessionID: id}); err != nil {
		return fmt.Errorf("mobile: acking hello: %w", err)
	}
	sess := &session{
		strategy: hello.Strategy,
		budget:   hello.Budget,
		compress: hello.Compress,
		key:      fmt.Sprintf("session-%d", id),
	}
	if sess.budget <= 0 {
		sess.budget = 100
	}
	for {
		s.armReadDeadline(conn)
		msg, wire, err := in.read(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil && wire > 0 {
			// Read whole but not decoded: the client hears why, and
			// the session reads on.
			if err := WriteMsg(conn, &ErrorMsg{Text: err.Error()}); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			if s.connClosed(cs) {
				// The server closed this conn during a drain; the
				// session ended cleanly from the client's view.
				return nil
			}
			return err
		}
		if s.panicHook != nil {
			s.panicHook(msg)
		}
		if !s.beginDispatch(cs) {
			return nil
		}
		bye, err := s.dispatch(ctx, conn, cs, sess, msg)
		s.endDispatch(cs)
		if bye || err != nil {
			return err
		}
	}
}

// dispatch handles one client message; bye reports a clean session
// end.
func (s *Server) dispatch(ctx context.Context, conn io.ReadWriter, cs *connState, sess *session, msg any) (bye bool, err error) {
	switch m := msg.(type) {
	case *Bye:
		return true, nil
	case *Open:
		if !s.allowRate(conn, sess) {
			return false, nil
		}
		return false, s.handleOpen(conn, sess, m)
	case *Query:
		if !s.allowRate(conn, sess) {
			return false, nil
		}
		return false, s.handleQuery(ctx, conn, sess, m)
	case *StatusReq:
		return false, s.respond(conn, sess, s.statusMsg())
	default:
		return false, WriteMsg(conn, &ErrorMsg{Text: fmt.Sprintf("unexpected %T", msg)})
	}
}

// allowRate applies the per-session token bucket, answering a
// RetryMsg with a refill-based hint when the bucket is dry. It
// reports whether the message may proceed.
func (s *Server) allowRate(w io.Writer, sess *session) bool {
	if s.Rate == nil {
		return true
	}
	err := s.Rate.Allow(sess.key)
	if err == nil {
		return true
	}
	s.engine.Metrics.Counter("mobile.rate_limited").Inc()
	after := admission.RetryAfterHint(err, s.retryHint())
	_ = s.respond(w, sess, &RetryMsg{AfterMS: after.Milliseconds()})
	return false
}

func (s *Server) handleOpen(w io.Writer, sess *session, m *Open) error {
	id, err := s.engine.NodeByName(m.Node)
	if err != nil {
		return WriteMsg(w, &ErrorMsg{Text: err.Error()})
	}
	// The reply is built from the in-memory tree alone: an Open runs no
	// statement and touches neither the semantic cache nor the
	// prefetcher. The strategy is fixed for the session, so only
	// StrategyLODDelta keeps the client's node set.
	focus := int64(id)
	var delta *TreeDelta
	switch sess.strategy {
	case StrategyFull:
		delta = &TreeDelta{Reset: true, Add: FullTree(s.engine), Focus: focus}
	case StrategyLOD:
		delta = &TreeDelta{Reset: true, Add: BuildViewport(s.engine, id, sess.budget), Focus: focus}
	case StrategyLODDelta:
		// respond encodes the delta before the next Open reuses its buffers.
		add, remove := sess.lod.open(s.engine.Tree(), s.engine.Layout(), id, sess.budget)
		delta = &TreeDelta{Add: add, Remove: remove, Focus: focus}
	default:
		return WriteMsg(w, &ErrorMsg{Text: fmt.Sprintf("unknown strategy %d", sess.strategy)})
	}
	return s.respond(w, sess, delta)
}

func (s *Server) handleQuery(ctx context.Context, w io.Writer, sess *session, m *Query) error {
	res, err := s.engine.QueryColumns(ctx, m.DTQL)
	if err != nil {
		return s.replyError(w, sess, err)
	}
	// res is the engine's shared result: it is encoded, never written.
	return s.respond(w, sess, &QueryResult{Columns: res.Columns, Batch: res.Batch})
}

// replyError answers a failed engine call. When the engine's limiter
// turned the call away it tells the client when to retry rather than
// reporting a failure.
func (s *Server) replyError(w io.Writer, sess *session, err error) error {
	if admission.IsShed(err) {
		s.engine.Metrics.Counter("mobile.sheds").Inc()
		after := admission.RetryAfterHint(err, s.retryHint())
		return s.respond(w, sess, &RetryMsg{AfterMS: after.Milliseconds()})
	}
	return WriteMsg(w, &ErrorMsg{Text: err.Error()})
}

// respond writes a reply through the session's frame buffer, honoring
// its compression negotiation.
func (s *Server) respond(w io.Writer, sess *session, msg any) error {
	_, err := sess.out.write(w, msg, sess.compress)
	return err
}
