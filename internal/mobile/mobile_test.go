package mobile

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/netsim"
	"drugtree/internal/phylo"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	return testEngineCfg(t, core.DefaultConfig())
}

func testEngineCfg(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 3
	gen.ProteinsPerFamily = 10
	gen.NumLigands = 12
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 5, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	e, err := core.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestMessageRoundTrips(t *testing.T) {
	msgs := []any{
		&Hello{Strategy: StrategyLODDelta, Budget: 75},
		&Open{Node: "clade_3"},
		&Query{DTQL: "SELECT * FROM proteins"},
		&Bye{},
		&TreeDelta{
			Reset: true, Focus: 7,
			Add: []WireNode{
				{Pre: 1, Name: "a", ParentPre: 0, IsLeaf: true, LeafCount: 1, Length: 0.5, X: 1.5, Y: 2},
				{Pre: 2, Name: "clade", ParentPre: 0, Collapsed: true, LeafCount: 42, Length: 0.1, X: 0.4, Y: 9},
			},
			Remove: []int64{3, 4, 5},
		},
		&QueryResult{
			Columns: []string{"a", "b"},
			Rows: []store.Row{
				{store.IntValue(1), store.StringValue("x")},
				{store.FloatValue(2.5), store.NullValue()},
			},
		},
		&ErrorMsg{Text: "boom"},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range msgs {
		got, _, err := ReadMsg(r)
		if err != nil {
			t.Fatalf("decode for %T: %v", want, err)
		}
		switch w := want.(type) {
		case *Hello:
			g := got.(*Hello)
			if g.Strategy != w.Strategy || g.Budget != w.Budget {
				t.Fatalf("hello mismatch: %+v vs %+v", g, w)
			}
		case *Open:
			if got.(*Open).Node != w.Node {
				t.Fatal("open mismatch")
			}
		case *Query:
			if got.(*Query).DTQL != w.DTQL {
				t.Fatal("query mismatch")
			}
		case *Bye:
			if _, ok := got.(*Bye); !ok {
				t.Fatal("bye mismatch")
			}
		case *TreeDelta:
			g := got.(*TreeDelta)
			if g.Reset != w.Reset || g.Focus != w.Focus || len(g.Add) != len(w.Add) || len(g.Remove) != len(w.Remove) {
				t.Fatalf("delta mismatch: %+v vs %+v", g, w)
			}
			for i := range w.Add {
				if g.Add[i] != w.Add[i] {
					t.Fatalf("delta node %d: %+v vs %+v", i, g.Add[i], w.Add[i])
				}
			}
		case *QueryResult:
			g := got.(*QueryResult)
			if len(g.Columns) != len(w.Columns) || len(g.Rows) != len(w.Rows) {
				t.Fatal("result shape mismatch")
			}
			if !store.Equal(g.Rows[0][0], w.Rows[0][0]) || g.Rows[1][1].K != store.KindNull {
				t.Fatal("result values mismatch")
			}
		case *ErrorMsg:
			if got.(*ErrorMsg).Text != w.Text {
				t.Fatal("error mismatch")
			}
		}
	}
}

func TestMsgSizeMatchesEncoding(t *testing.T) {
	m := &TreeDelta{Add: []WireNode{{Pre: 9, Name: "node"}}}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, m); err != nil {
		t.Fatal(err)
	}
	sz, err := MsgSize(m)
	if err != nil {
		t.Fatal(err)
	}
	if sz != int64(buf.Len()) {
		t.Fatalf("MsgSize = %d, encoded = %d", sz, buf.Len())
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	oneCol := []byte{byte(MsgQueryResult), 1, 1, 'a'}
	for name, p := range map[string][]byte{
		"empty message":           nil,
		"unknown type":            {99},
		"truncated open":          {byte(MsgOpen), 0xFF},
		"non-minimal varint":      {byte(MsgOpen), 0x80, 0x00},
		"flag byte 2":             {byte(MsgHello), 0, 5, 2},
		"trailing byte":           {byte(MsgBye), 0},
		"row narrower than cols":  cat(oneCol, []byte{1, 0}),
		"row wider than cols":     cat(oneCol, []byte{1, 2, 0, 0}),
		"unknown value kind":      cat(oneCol, []byte{1, 1, 9}),
		"bool value byte 2":       cat(oneCol, []byte{1, 1, byte(store.KindBool), 2}),
		"row count past payload":  cat(oneCol, huge, []byte{1, 0, 1, 0}),
		"column count past bytes": cat([]byte{byte(MsgQueryResult)}, huge, []byte{1, 'a'}),
		"node count past payload": cat([]byte{byte(MsgTreeDelta), 0, 0}, huge, make([]byte, 64)),
		"source count past bytes": cat([]byte{byte(MsgStatus)}, huge, []byte{0, 0, 0, 0}),
	} {
		var err error
		// A count is checked against the bytes left before anything is
		// sized by it, so a rejected frame costs next to nothing.
		if n := allocatedBy(func() { _, err = decodeMsg(p) }); n > 4096 {
			t.Errorf("%s: rejecting it allocated %d bytes", name, n)
		}
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestBuildViewportBudget(t *testing.T) {
	e := testEngine(t)
	root := e.Tree().Root()
	for _, budget := range []int{1, 5, 10, 25, 1000} {
		nodes := BuildViewport(e, root, budget)
		if len(nodes) > budget && budget >= 1 {
			t.Fatalf("budget %d produced %d nodes", budget, len(nodes))
		}
		if len(nodes) == 0 {
			t.Fatalf("budget %d produced nothing", budget)
		}
	}
	// Unlimited budget covers the full subtree with nothing collapsed.
	all := BuildViewport(e, root, e.Tree().Len())
	if len(all) != e.Tree().Len() {
		t.Fatalf("full budget = %d nodes, want %d", len(all), e.Tree().Len())
	}
	for _, n := range all {
		if n.Collapsed {
			t.Fatalf("node %d collapsed under full budget", n.Pre)
		}
	}
}

func TestBuildViewportConnected(t *testing.T) {
	e := testEngine(t)
	root := e.Tree().Root()
	nodes := BuildViewport(e, root, 15)
	pres := map[int64]bool{}
	for _, n := range nodes {
		pres[n.Pre] = true
	}
	rootSeen := 0
	for _, n := range nodes {
		if n.ParentPre == -1 {
			rootSeen++
			continue
		}
		if !pres[n.ParentPre] {
			t.Fatalf("node %d references missing parent %d", n.Pre, n.ParentPre)
		}
	}
	if rootSeen != 1 {
		t.Fatalf("viewport has %d roots", rootSeen)
	}
}

func TestBuildViewportLeafCoverage(t *testing.T) {
	// Collapsed markers plus real leaves must account for every leaf.
	e := testEngine(t)
	root := e.Tree().Root()
	nodes := BuildViewport(e, root, 12)
	var covered int64
	for _, n := range nodes {
		if n.IsLeaf {
			covered++
		} else if n.Collapsed {
			covered += n.LeafCount
		}
	}
	if covered != int64(len(e.Tree().Leaves())) {
		t.Fatalf("covered %d leaves, tree has %d", covered, len(e.Tree().Leaves()))
	}
}

func TestBuildViewportMonotoneInBudget(t *testing.T) {
	// Property: a larger budget renders a superset of the nodes a
	// smaller budget renders (best-first expansion is deterministic).
	e := testEngine(t)
	root := e.Tree().Root()
	prev := map[int64]bool{}
	for _, budget := range []int{1, 3, 7, 15, 31, 63} {
		nodes := BuildViewport(e, root, budget)
		cur := map[int64]bool{}
		for _, n := range nodes {
			cur[n.Pre] = true
		}
		for pre := range prev {
			if !cur[pre] {
				t.Fatalf("budget %d dropped node %d present at a smaller budget", budget, pre)
			}
		}
		prev = cur
	}
}

func TestDiffViewports(t *testing.T) {
	held := map[int64]bool{1: true, 2: true, 3: true}
	next := []WireNode{{Pre: 2}, {Pre: 3}, {Pre: 4}}
	add, remove := DiffViewports(held, next)
	if len(add) != 1 || add[0].Pre != 4 {
		t.Fatalf("add = %v", add)
	}
	if len(remove) != 1 || remove[0] != 1 {
		t.Fatalf("remove = %v", remove)
	}
}

// runSession drives open interactions through an in-process
// client/server pair and returns the client.
func runSession(t *testing.T, e *core.Engine, strategy Strategy, budget int, opens []string) *Client {
	t.Helper()
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- server.ServeConn(context.Background(), serverConn)
	}()
	c, err := Dial(clientConn, strategy, budget)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range opens {
		if _, err := c.Open(node); err != nil {
			t.Fatalf("open %s: %v", node, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	clientConn.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not finish")
	}
	return c
}

func TestSessionFullStrategy(t *testing.T) {
	e := testEngine(t)
	rootName := e.Root().Name
	c := runSession(t, e, StrategyFull, 50, []string{rootName})
	if len(c.Nodes) != e.Tree().Len() {
		t.Fatalf("client holds %d nodes, want full tree %d", len(c.Nodes), e.Tree().Len())
	}
}

func TestSessionLODStrategy(t *testing.T) {
	e := testEngine(t)
	rootName := e.Root().Name
	c := runSession(t, e, StrategyLOD, 20, []string{rootName})
	if len(c.Nodes) > 20 {
		t.Fatalf("client holds %d nodes, budget 20", len(c.Nodes))
	}
	if len(c.Nodes) == 0 {
		t.Fatal("client holds nothing")
	}
}

func TestSessionDeltaStrategySendsLess(t *testing.T) {
	e := testEngine(t)
	children, err := e.Children(e.Root().Name)
	if err != nil || len(children) < 2 {
		t.Fatalf("children: %v %v", children, err)
	}
	opens := []string{e.Root().Name, children[0].Name, children[1].Name, e.Root().Name}

	e.ResetSession()
	lod := runSession(t, e, StrategyLOD, 30, opens)
	e.ResetSession()
	delta := runSession(t, e, StrategyLODDelta, 30, opens)
	if delta.BytesDown >= lod.BytesDown {
		t.Fatalf("delta strategy moved %d bytes, plain LOD %d", delta.BytesDown, lod.BytesDown)
	}
	// Both end with the same rendered node set.
	if len(delta.Nodes) != len(lod.Nodes) {
		t.Fatalf("render models differ: %d vs %d nodes", len(delta.Nodes), len(lod.Nodes))
	}
	for pre := range lod.Nodes {
		if _, ok := delta.Nodes[pre]; !ok {
			t.Fatalf("delta model missing node %d", pre)
		}
	}
}

func TestSessionQuery(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	go server.ServeConn(context.Background(), serverConn)
	defer clientConn.Close()
	c, err := Dial(clientConn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT family, COUNT(*) FROM proteins GROUP BY family ORDER BY family")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("query rows = %d, want 3", len(res.Rows))
	}
	// Bad query returns a protocol error, not a dead session.
	if _, err := c.Query("SELECT nope FROM nope"); err == nil {
		t.Fatal("bad query succeeded")
	}
	// Session still alive.
	if _, err := c.Query("SELECT COUNT(*) FROM ligands"); err != nil {
		t.Fatalf("session died after error: %v", err)
	}
	c.Close()
}

func TestSessionOpenUnknownNode(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	go server.ServeConn(context.Background(), serverConn)
	defer clientConn.Close()
	c, err := Dial(clientConn, StrategyLOD, 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("no-such-node"); err == nil {
		t.Fatal("unknown node accepted")
	}
	c.Close()
}

func TestServerRejectsMissingHello(t *testing.T) {
	e := testEngine(t)
	server := NewServer(e)
	clientConn, serverConn := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- server.ServeConn(context.Background(), serverConn) }()
	WriteMsg(clientConn, &Open{Node: "x"})
	r := bufio.NewReader(clientConn)
	msg, _, err := ReadMsg(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*ErrorMsg); !ok {
		t.Fatalf("expected error, got %T", msg)
	}
	clientConn.Close()
	if err := <-done; err == nil {
		t.Fatal("server accepted session without hello")
	}
}

func TestSessionOverShapedLink(t *testing.T) {
	// End-to-end over a lossy-ish shaped pipe: functional behaviour
	// must be identical; latency must reflect the link.
	e := testEngine(t)
	server := NewServer(e)
	link := netsim.NewLink(netsim.Profile{
		Name: "test", RTT: 20 * time.Millisecond,
		DownBps: 1 << 24, UpBps: 1 << 24,
	}, 1, false)
	clientConn, serverConn := netsim.Pipe(link)
	defer clientConn.Close()
	defer serverConn.Close()
	go server.ServeConn(context.Background(), serverConn)
	c, err := Dial(clientConn, StrategyLOD, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(e.Root().Name); err != nil {
		t.Fatal(err)
	}
	if len(c.Latencies) != 1 || c.Latencies[0] < 15*time.Millisecond {
		t.Fatalf("latency %v does not reflect 20ms RTT", c.Latencies)
	}
	c.Close()
}

func TestServeOverTCP(t *testing.T) {
	// The real accept loop end to end over localhost TCP.
	e := testEngine(t)
	server := NewServer(e)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go server.Serve(context.Background(), l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c, err := Dial(conn, StrategyLOD, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(e.Root().Name); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) FROM proteins")
	if err != nil {
		t.Fatal(err)
	}
	if got := RowsAsStrings(res); len(got) != 1 || got[0] != "30" {
		t.Fatalf("query over TCP = %v", got)
	}
	if c.VisibleLeaves() == 0 {
		t.Fatal("no visible leaves after open")
	}
	c.Close()
	if server.Sessions() != 1 {
		t.Fatalf("sessions = %d", server.Sessions())
	}
}

func TestEnumStrings(t *testing.T) {
	for _, m := range []MsgType{MsgHello, MsgOpen, MsgQuery, MsgBye, MsgTreeDelta, MsgQueryResult, MsgError, MsgType(99)} {
		if m.String() == "" {
			t.Fatalf("empty string for %d", m)
		}
	}
	for _, s := range []Strategy{StrategyFull, StrategyLOD, StrategyLODDelta, Strategy(99)} {
		if s.String() == "" {
			t.Fatalf("empty string for strategy %d", s)
		}
	}
}

func TestCompressedSessionFewerBytes(t *testing.T) {
	e := testEngine(t)
	rootName := e.Root().Name

	run := func(compress bool) int64 {
		e.ResetSession()
		server := NewServer(e)
		clientConn, serverConn := net.Pipe()
		defer clientConn.Close()
		defer serverConn.Close()
		go server.ServeConn(context.Background(), serverConn)
		var c *Client
		var err error
		if compress {
			c, err = DialCompressed(clientConn, StrategyFull, 50)
		} else {
			c, err = Dial(clientConn, StrategyFull, 50)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Open(rootName); err != nil {
			t.Fatal(err)
		}
		nodes := len(c.Nodes)
		if nodes != e.Tree().Len() {
			t.Fatalf("render model = %d nodes, want %d", nodes, e.Tree().Len())
		}
		c.Close()
		return c.BytesDown
	}
	raw := run(false)
	compressed := run(true)
	if compressed >= raw {
		t.Fatalf("compression did not shrink: %d vs %d bytes", compressed, raw)
	}
	if raw < compressed*2 {
		t.Logf("note: compression ratio only %.2fx", float64(raw)/float64(compressed))
	}
}

func TestSmallResponsesNotCompressed(t *testing.T) {
	// Payloads under the threshold ship raw even on a compressed
	// session (the flate header would inflate them).
	var buf bytes.Buffer
	n, err := WriteMsgCompressed(&buf, &ErrorMsg{Text: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MsgSize(&ErrorMsg{Text: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if n != raw {
		t.Fatalf("tiny message resized: %d vs %d", n, raw)
	}
	msg, wire, err := ReadMsg(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if wire != n || msg.(*ErrorMsg).Text != "tiny" {
		t.Fatalf("round trip: wire=%d msg=%v", wire, msg)
	}
}

func TestCompressedFrameRoundTrip(t *testing.T) {
	// A large highly-redundant delta must compress and inflate back
	// losslessly.
	d := &TreeDelta{Reset: true}
	for i := 0; i < 500; i++ {
		d.Add = append(d.Add, WireNode{Pre: int64(i), Name: "node-name-repeats", LeafCount: 3})
	}
	var buf bytes.Buffer
	n, err := WriteMsgCompressed(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := MsgSize(d)
	if n >= raw {
		t.Fatalf("redundant payload did not compress: %d vs %d", n, raw)
	}
	msg, wire, err := ReadMsg(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if wire != n {
		t.Fatalf("wire accounting: %d vs %d", wire, n)
	}
	got := msg.(*TreeDelta)
	if len(got.Add) != 500 || got.Add[499] != d.Add[499] {
		t.Fatalf("compressed round trip corrupted: %d nodes", len(got.Add))
	}
}

func TestViewportFocusOnSubclade(t *testing.T) {
	e := testEngine(t)
	children, _ := e.Children(e.Root().Name)
	if len(children) == 0 {
		t.Skip("no children")
	}
	focus, err := e.NodeByName(children[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	nodes := BuildViewport(e, focus, 10)
	lo, hi := e.Tree().SubtreeInterval(focus)
	for _, n := range nodes {
		if n.Pre < int64(lo) || n.Pre > int64(hi) {
			t.Fatalf("viewport node %d outside focus interval [%d,%d]", n.Pre, lo, hi)
		}
	}
	_ = phylo.None
}
