package mobile

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"drugtree/internal/core"
)

// serveOnce spawns one ServeConn session over a fresh in-memory pipe
// and returns the client end plus the session's exit channel. A
// cleanup closes the pipe and joins the session goroutine so no test
// exits with a server blocked in ReadMsg (the package TestMain runs
// leaktest).
func serveOnce(t *testing.T, server *Server) (net.Conn, chan error) {
	t.Helper()
	clientConn, serverConn := net.Pipe()
	done := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer serverConn.Close()
		done <- server.ServeConn(context.Background(), serverConn)
	}()
	t.Cleanup(func() {
		clientConn.Close()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Error("server session goroutine did not exit")
		}
	})
	return clientConn, done
}

// waitSession asserts a session goroutine exits within the deadline and
// returns its error.
func waitSession(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("session goroutine did not exit")
		return nil
	}
}

// assertServes proves the server still answers fresh sessions — the
// invariant every fault below must preserve.
func assertServes(t *testing.T, server *Server) {
	t.Helper()
	conn, done := serveOnce(t, server)
	defer conn.Close()
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM proteins"); err != nil {
		t.Fatalf("server stopped serving after a faulted session: %v", err)
	}
	c.Close()
	waitSession(t, done)
}

func TestServerPanicConfinedToSession(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	server.panicHook = func(msg any) {
		if _, ok := msg.(*Query); ok {
			panic("injected fault")
		}
	}
	conn, done := serveOnce(t, server)
	defer conn.Close()
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The panicking dispatch must surface as an ErrorMsg, not a hung or
	// dropped connection.
	_, err = c.Query("SELECT COUNT(*) FROM proteins")
	if err == nil || !strings.Contains(err.Error(), "internal server error") {
		t.Fatalf("client saw %v, want internal server error", err)
	}
	serr := waitSession(t, done)
	if serr == nil || !strings.Contains(serr.Error(), "panic") {
		t.Fatalf("session returned %v, want panic error", serr)
	}
	if got := e.Metrics.Counter("mobile.session_panics").Value(); got != 1 {
		t.Fatalf("session_panics = %d", got)
	}
	// The blast radius ends at the session boundary.
	server.panicHook = nil
	assertServes(t, server)
}

func TestServerGarbageFirstFrame(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	conn, done := serveOnce(t, server)
	// A length prefix far beyond maxFrame: the server must reject it
	// without allocating or stalling.
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil {
		t.Fatal(err)
	}
	if serr := waitSession(t, done); serr == nil {
		t.Fatal("server accepted a garbage first frame")
	}
	conn.Close()
	assertServes(t, server)
}

func TestServerReadDeadlineReleasesStalledSession(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	server.ReadTimeout = 50 * time.Millisecond
	conn, done := serveOnce(t, server)
	defer conn.Close()
	// Dial sends Hello, then the phone goes dark: the deadline must
	// release the goroutine instead of pinning it forever.
	if _, err := Dial(conn, StrategyLOD, 50); err != nil {
		t.Fatal(err)
	}
	serr := waitSession(t, done)
	if !errors.Is(serr, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled session returned %v, want deadline error", serr)
	}
	assertServes(t, server)
}

func TestServerMidSessionDrop(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	conn, done := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(*) FROM ligands"); err != nil {
		t.Fatal(err)
	}
	// Connection dies mid-session without a Bye.
	conn.Close()
	waitSession(t, done)
	assertServes(t, server)
}

func TestClientReconnectReplaysHello(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	conn, _ := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Redial = func() (io.ReadWriter, error) {
		next, _ := serveOnce(t, server)
		return next, nil
	}
	c.MaxRedials = 2
	if _, err := c.Query("SELECT COUNT(*) FROM proteins"); err != nil {
		t.Fatal(err)
	}
	// Tower handoff: the transport dies under the client, which must
	// redial, replay its Hello, and retry transparently.
	conn.Close()
	res, err := c.Query("SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatalf("query after transport loss: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if c.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", c.Reconnects)
	}
	// The replayed Hello opened a second server session.
	if server.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", server.Sessions())
	}
}

func TestClientReconnectBounded(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	conn, _ := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	redials := 0
	c.Redial = func() (io.ReadWriter, error) {
		redials++
		return nil, errors.New("no signal")
	}
	c.MaxRedials = 3
	conn.Close()
	if _, err := c.Query("SELECT COUNT(*) FROM proteins"); err == nil {
		t.Fatal("query succeeded with no transport")
	}
	if redials > c.MaxRedials {
		t.Fatalf("client redialled %d times, bound %d", redials, c.MaxRedials)
	}
	if c.Reconnects != 0 {
		t.Fatalf("reconnects = %d with failing redial", c.Reconnects)
	}
}

func TestClientNoRedialFailsFast(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	conn, _ := serveOnce(t, server)
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := c.Query("SELECT COUNT(*) FROM proteins"); err == nil {
		t.Fatal("query succeeded on a dead transport without Redial")
	}
}

func TestStatusOverWire(t *testing.T) {
	// Without an attached importer the status list is empty but the
	// message round-trips; richer coverage lives in the integrate tests.
	e := testEngine(t)
	server := NewServer(e)
	conn, done := serveOnce(t, server)
	defer conn.Close()
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sources) != 0 {
		t.Fatalf("engine without health fn reported %d sources", len(st.Sources))
	}
	c.Close()
	waitSession(t, done)
}

func TestShardStatusOverWire(t *testing.T) {
	// Shards are in-memory copies of one store, not sources: a
	// partitioned engine's STATUS lists exactly what a single-node one
	// does — here, with no importer attached, nothing.
	cfg := core.DefaultConfig()
	cfg.Shards = 3
	e := testEngineCfg(t, cfg)
	server := NewServer(e)
	conn, done := serveOnce(t, server)
	defer conn.Close()
	c, err := Dial(conn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sources) != 0 {
		t.Fatalf("sharded engine reported sources %+v, want none", st.Sources)
	}
	c.Close()
	waitSession(t, done)
}
